"""Reading and writing point clouds, diagrams, and feature tables.

Point files: CSV with one `x,y[,z]` line per point (no header), or a JSON
array of coordinate arrays. Diagram files: CSV lines `dim,birth,death` with
`inf` for essential classes, or JSON rows with null deaths. Floats are
written with 10 decimal places, trailing zeros trimmed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .core import PersistenceDiagram, PointCloud
from .errors import InputFormatError

DEFAULT_PRECISION = 10


def fmt_float(x: float, precision: int = DEFAULT_PRECISION) -> str:
    """``x`` with ``precision`` decimals and no trailing zeros; a nonzero
    value that would round to 0 keeps ``precision`` significant digits."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    s = f"{x:.{precision}f}".rstrip("0").rstrip(".")
    if s in ("", "0", "-0"):
        return f"{x:.{precision}g}" if x != 0 else "0"
    return s


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def read_point_cloud(path) -> PointCloud:
    path = Path(path)
    text = _read_text(path)
    try:
        if path.suffix.lower() == ".json":
            rows = json.loads(text)
        else:
            rows = [[float(tok) for tok in line.split(",")]
                    for line in text.splitlines() if line.strip()]
        return PointCloud.from_points(rows)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"bad point file {path}: {exc}") from exc


def write_point_cloud(path, cloud: PointCloud, precision: int = DEFAULT_PRECISION):
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(json.dumps([list(p) for p in cloud.points]) + "\n")
        return
    lines = [",".join(fmt_float(x, precision) for x in p) for p in cloud.points]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


def read_series(path) -> list:
    path = Path(path)
    text = _read_text(path)
    vals = []
    try:
        for line in text.splitlines():
            line = line.strip()
            if line:
                vals.extend(float(tok) for tok in line.split(","))
    except ValueError as exc:
        raise InputFormatError(f"bad series file {path}: {exc}") from exc
    return vals


def read_diagram(path) -> PersistenceDiagram:
    path = Path(path)
    text = _read_text(path)
    pairs: dict = {}
    try:
        if path.suffix.lower() == ".json":
            for dim, birth, death in json.loads(text):
                d = math.inf if death is None else float(death)
                pairs.setdefault(int(dim), []).append((float(birth), d))
        else:
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                dim, birth, death = line.split(",")
                pairs.setdefault(int(dim), []).append(
                    (float(birth), float(death)))
        return PersistenceDiagram.from_pairs(pairs)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"bad diagram file {path}: {exc}") from exc


def write_diagram(path, diag: PersistenceDiagram, keep_zero: bool = False,
                  precision: int = DEFAULT_PRECISION):
    if not keep_zero:
        diag = diag.drop_zero()
    path = Path(path)
    if path.suffix.lower() == ".json":
        rows = [[dim, birth, None if math.isinf(death) else death]
                for dim, birth, death in diag.entries]
        path.write_text(json.dumps(rows) + "\n")
        return
    lines = [f"{dim},{fmt_float(birth, precision)},{fmt_float(death, precision)}"
             for dim, birth, death in diag.entries]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


def write_features_csv(path, header, rows, precision: int = DEFAULT_PRECISION):
    """One CSV row per sample; NaNs written as `nan`."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            "nan" if math.isnan(v) else fmt_float(v, precision) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
