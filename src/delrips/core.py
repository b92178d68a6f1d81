"""Shared domain types: point clouds, simplices, filtrations, diagrams.

A simplex is represented throughout as a strictly increasing tuple of point
indices; its dimension is ``len(verts) - 1``. A filtration is a flat list of
``(simplex, scale)`` entries together with the dimension cap that was used to
build it. All types are immutable after construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidFiltration, ValidationError

Simplex = tuple  # strictly increasing tuple of vertex indices

INF = math.inf
_FLOAT_MIN = sys.float_info.min


def make_simplex(vertices: Iterable[int]) -> Simplex:
    """Validate and canonicalize a vertex set into a simplex tuple."""
    verts = tuple(sorted(int(v) for v in vertices))
    if not verts:
        raise ValidationError("a simplex needs at least one vertex")
    if any(verts[i] == verts[i + 1] for i in range(len(verts) - 1)):
        raise ValidationError(f"repeated vertex in simplex {verts}")
    if verts[0] < 0:
        raise ValidationError(f"negative vertex index in simplex {verts}")
    return verts


def simplex_dim(verts: Simplex) -> int:
    return len(verts) - 1


def simplex_faces(verts: Simplex):
    """Codimension-1 faces, in lexicographic order."""
    if len(verts) == 1:
        return
    for drop in range(len(verts) - 1, -1, -1):
        yield verts[:drop] + verts[drop + 1:]


@dataclass(frozen=True)
class PointCloud:
    """Finite ordered list of points in R^2 or R^3 with stable indices."""

    points: tuple
    dim: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValidationError(f"ambient dimension must be 2 or 3, got {self.dim}")
        for p in self.points:
            if len(p) != self.dim:
                raise ValidationError(f"point {p} does not have {self.dim} coordinates")
            if not all(math.isfinite(x) for x in p):
                raise ValidationError(f"non-finite coordinate in point {p}")

    @classmethod
    def from_points(cls, points: Sequence[Sequence[float]]) -> "PointCloud":
        pts = tuple(tuple(float(x) for x in p) for p in points)
        if not pts:
            raise ValidationError("point cloud is empty")
        return cls(points=pts, dim=len(pts[0]))

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=float)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int):
        return self.points[i]


def _sort_key(entry):
    verts, scale = entry
    return (scale, len(verts), verts)


@dataclass(frozen=True)
class Filtration:
    """Simplices with monotone scales, capped at dimension ``max_dim``.

    ``max_dim`` records the cap the builder used (simplices above it were
    discarded), which also bounds the homology dimensions that persistence
    can report; it may exceed the largest dimension actually present.
    """

    entries: tuple  # ((verts, scale), ...)
    max_dim: int

    def __post_init__(self):
        for verts, scale in self.entries:
            if len(verts) - 1 > self.max_dim:
                raise ValidationError(
                    f"simplex {verts} exceeds dimension cap {self.max_dim}")
            if not (scale >= 0.0):
                raise ValidationError(f"negative or NaN scale for {verts}")

    def __len__(self) -> int:
        return len(self.entries)

    def simplices(self):
        return tuple(verts for verts, _ in self.entries)

    def simplex_set(self) -> frozenset:
        return frozenset(verts for verts, _ in self.entries)

    def scale_of(self) -> dict:
        return {verts: scale for verts, scale in self.entries}

    def is_sorted(self) -> bool:
        keys = [_sort_key(e) for e in self.entries]
        return all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))


def sort_filtration(filt: Filtration) -> Filtration:
    """Canonically order a filtration by (scale, dimension, vertex tuple).

    Validates closure (every codimension-1 face present) and monotonicity
    (no face with a larger scale than its coface) before sorting; raises
    InvalidFiltration on a violation. Idempotent and deterministic.
    """
    scale_of = {}
    for verts, scale in filt.entries:
        if verts in scale_of:
            raise InvalidFiltration(f"simplex {verts} listed twice")
        scale_of[verts] = scale
    for verts, scale in filt.entries:
        for face in simplex_faces(verts):
            fscale = scale_of.get(face)
            if fscale is None:
                raise InvalidFiltration(f"face {face} of {verts} is missing")
            if fscale > scale:
                raise InvalidFiltration(
                    f"face {face} (scale {fscale}) appears after coface "
                    f"{verts} (scale {scale})")
    ordered = tuple(sorted(filt.entries, key=_sort_key))
    return Filtration(entries=ordered, max_dim=filt.max_dim)


def diagram_pair(birth, death) -> tuple:
    """``(birth, death)`` as floats; raises ValidationError when the birth
    is not finite, the death is NaN, or birth > death (deaths may be inf).
    Diagrams and the bottleneck distance both check their pairs here."""
    birth, death = float(birth), float(death)
    if not (math.isfinite(birth) and birth <= death):
        raise ValidationError(f"invalid pair: birth {birth}, death {death}")
    return birth, death


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs per homology dimension.

    Deaths may be ``math.inf`` for essential classes. Zero-persistence pairs
    (birth == death) are retained; use ``drop_zero`` for the filtered view.
    """

    entries: tuple = field(default=())  # ((dim, birth, death), ...), canonical order

    @classmethod
    def from_pairs(cls, pairs_by_dim: Mapping[int, Iterable]) -> "PersistenceDiagram":
        rows = []
        for dim, pairs in pairs_by_dim.items():
            for birth, death in pairs:
                rows.append((int(dim), *diagram_pair(birth, death)))
        return cls(entries=tuple(sorted(rows)))

    @property
    def pairs_by_dim(self) -> dict:
        out: dict = {}
        for dim, birth, death in self.entries:
            out.setdefault(dim, []).append((birth, death))
        return {d: tuple(v) for d, v in out.items()}

    def pairs(self, dim: int) -> tuple:
        return tuple((b, d) for p, b, d in self.entries if p == dim)

    def dims(self) -> tuple:
        return tuple(sorted({p for p, _, _ in self.entries}))

    def drop_zero(self) -> "PersistenceDiagram":
        return PersistenceDiagram(
            entries=tuple(e for e in self.entries if e[1] != e[2]))

    def __len__(self) -> int:
        return len(self.entries)


def point_distance(p, q) -> float:
    """Distance between two cloud points (2 or 3 coordinates): sqrt of the
    squared differences summed in coordinate order. Rips and Delaunay-Rips
    take every length from here, so a pair always gets the same bits.

    When that sum underflows below the smallest normal float (coordinates
    near 1e-200) or overflows to inf (coordinates near 1e160),
    ``math.hypot`` recomputes it scaled by the largest difference; identical
    points still get 0.0.
    """
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    if len(p) == 2:
        s = dx * dx + dy * dy
        return math.sqrt(s) if _FLOAT_MIN <= s < INF else math.hypot(dx, dy)
    dz = p[2] - q[2]
    s = dx * dx + dy * dy + dz * dz
    return math.sqrt(s) if _FLOAT_MIN <= s < INF else math.hypot(dx, dy, dz)


def pairwise_distances(cloud: PointCloud) -> list:
    """Dense symmetric distance matrix as nested lists, by ``point_distance``.

    Only the Rips builder needs every pair; Delaunay-Rips computes lengths
    for the Delaunay edges alone.
    """
    pts = cloud.points
    n = len(pts)
    mat = [[0.0] * n for _ in range(n)]
    for i in range(n):
        pi = pts[i]
        row = mat[i]
        for j in range(i + 1, n):
            row[j] = mat[j][i] = point_distance(pi, pts[j])
    return mat


def closure_of(top_simplices: Iterable[Simplex], max_dim: int | None = None) -> set:
    """All non-empty faces of the given simplices up to ``max_dim``."""
    out: set = set()
    for top in top_simplices:
        cap = len(top) if max_dim is None else min(len(top), max_dim + 1)
        for k in range(1, cap + 1):
            out.update(combinations(top, k))
    return out
