"""Shared domain types: point clouds, simplices, filtrations, diagrams.

A simplex is represented throughout as a strictly increasing tuple of point
indices; its dimension is ``len(verts) - 1``. A filtration is a flat list of
``(simplex, scale)`` entries together with the dimension cap that was used to
build it. All types are immutable after construction.

``distances`` is the one point-distance formula, with a ``math.hypot``
guard for sums that underflow or overflow; ``distance_blocks`` runs it over
an n x m array in row blocks, so no input size holds the whole array.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidFiltration, UnsortedFiltration, ValidationError

Simplex = tuple  # strictly increasing tuple of vertex indices

INF = math.inf
_FLOAT_MIN = sys.float_info.min
# Entries per block of an n x m distance array (see ``distance_blocks``).
_BLOCK = 1 << 16


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


def boundary_columns(entries) -> list:
    """The one filtration check: each entry's sorted face indices, or
    UnsortedFiltration when an entry's ``_sort_key`` is below its
    predecessor's (checked before any face lookup), or InvalidFiltration on
    a simplex listed twice, a missing face or a face after its coface.
    """
    index = {}
    prev = ()
    for j, entry in enumerate(entries):
        if entry[0] in index:
            raise InvalidFiltration(f"simplex {entry[0]} listed twice")
        key = _sort_key(entry)
        if key < prev:
            raise UnsortedFiltration(
                f"{entry[0]} is out of order (use sort_filtration)")
        index[entry[0]] = j
        prev = key
    columns = []
    for j, (verts, scale) in enumerate(entries):
        col = []
        for face in simplex_faces(verts):
            i = index.get(face)
            if i is None:
                raise InvalidFiltration(f"face {face} of {verts} is missing")
            if i > j:
                raise InvalidFiltration(
                    f"face {face} (scale {entries[i][1]}) appears after "
                    f"coface {verts} (scale {scale})")
            col.append(i)
        col.sort()
        columns.append(tuple(col))
    return columns


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


def sort_filtration(filt: Filtration) -> Filtration:
    """Canonically order a filtration by (scale, dimension, vertex tuple),
    then run the one filtration check, ``boundary_columns``, on the result
    (InvalidFiltration on a duplicate, a missing face or a face with a larger
    scale than its coface). Idempotent and deterministic."""
    ordered = tuple(sorted(filt.entries, key=_sort_key))
    boundary_columns(ordered)
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


def distances(a, b) -> np.ndarray:
    """Distances between the points of ``a`` and ``b``, two broadcastable
    ``(..., d)`` arrays with d = 2 or 3: sqrt of the squared differences
    summed in coordinate order, elementwise. Every point distance in the
    package comes from here, so a pair always gets the same bits.

    Entries whose sum underflows below the smallest normal float
    (coordinates near 1e-200) or overflows to inf (coordinates near 1e160)
    are recomputed by ``math.hypot``, scaled by the largest difference;
    identical points still get 0.0.
    """
    diff = np.subtract(a, b, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        s = sum(diff[..., k] * diff[..., k] for k in range(diff.shape[-1]))
        out = np.sqrt(s, out=np.empty(np.shape(s)))
        bad = ~((s >= _FLOAT_MIN) & (s < INF))
    if bad.any():
        out[bad] = [math.hypot(*v) for v in diff[bad].tolist()]
    return out


def distance_blocks(a: np.ndarray, b: np.ndarray):
    """The (len(a), len(b)) array of ``distances`` between the rows of two
    (n, d) arrays, as ``(rows, block)`` pairs of about ``_BLOCK`` entries
    each, so that no caller holds the whole array at once."""
    step = max(1, _BLOCK // max(len(b), 1))
    for i in range(0, len(a), step):
        rows = slice(i, min(i + step, len(a)))
        yield rows, distances(a[rows, None, :], b)


def pairwise_distances(cloud: PointCloud) -> list:
    """Dense symmetric distance matrix as nested lists, by ``distances``.

    Only the Rips builder needs every pair; Delaunay-Rips computes lengths
    for the Delaunay edges alone.
    """
    pts = cloud.as_array()
    return [row for _, block in distance_blocks(pts, pts) for row in block.tolist()]

