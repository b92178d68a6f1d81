"""Shared domain types: point clouds, simplices, filtrations, diagrams.

A simplex is represented throughout as a strictly increasing tuple of point
indices; its dimension is ``len(verts) - 1``. A filtration is a sequence of
``(simplex, scale)`` entries together with the dimension cap that was used to
build it, held internally as integer arrays: per dimension the simplices as
an int64 array and each one's position in filtration order, plus the
float64 scales. ``boundary_columns`` is the one filtration check (order,
duplicates, closure, face before coface), run in numpy on those arrays;
the entries are built only when read. All types are immutable after
construction.

``distances`` is the one point-distance formula, with a ``math.hypot``
guard for sums that underflow or overflow; ``distance_blocks`` runs it over
an n x m array in row blocks, so no input size holds the whole array.
"""

from __future__ import annotations

import math
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidFiltration, UnsortedFiltration, ValidationError

Simplex = tuple  # strictly increasing tuple of vertex indices

INF = math.inf
_FLOAT_MIN = sys.float_info.min
# Entries per block of an n x m distance array (see ``distance_blocks``).
_BLOCK = 1 << 16
_INT64_MAX = np.iinfo(np.int64).max


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


def _vertex_rows(rows: list, width: int) -> np.ndarray:
    """Vertex tuples of one length as an (m, width) int64 array; raises
    ValidationError on an id that is not an integer or does not fit in
    int64."""
    if not rows:
        return np.empty((0, width), dtype=np.int64)
    arr = np.array(rows)
    kind = arr.dtype.kind
    if kind not in "biu" or (kind == "u" and arr.max() > _INT64_MAX):
        raise ValidationError("vertex ids must be integers that fit in int64")
    return arr.astype(np.int64)


def _shared_floats(values: np.ndarray) -> list:
    """A float64 array as Python floats, one object per run of equal values
    (so one per value when ``values`` is sorted, as filtration scales are)."""
    new = np.ones(len(values), dtype=bool)
    new[1:] = values.view(np.int64)[1:] != values.view(np.int64)[:-1]
    objects = np.empty(int(new.sum()), dtype=object)
    objects[:] = values[new].tolist()
    return objects[np.cumsum(new) - 1].tolist()


def _row_tuples(rows: np.ndarray) -> np.ndarray:
    """The rows of a 2-D object array as a 1-D object array of tuples."""
    columns = (rows[:, c].tolist() for c in range(rows.shape[1]))
    return np.fromiter(zip(*columns), dtype=object, count=len(rows))


class Filtration:
    """Simplices with monotone scales, capped at dimension ``max_dim``.

    ``max_dim`` records the cap the builder used (simplices above it were
    discarded), which also bounds the homology dimensions that persistence
    can report; it may exceed the largest dimension actually present.

    Internally a filtration is held as integer arrays: for each dimension k
    the k-simplices as an (m_k, k+1) int64 array and each row's position in
    filtration order, plus the float64 scales in filtration order. The
    Delaunay builders make this form directly; a filtration made from
    ``entries`` derives it on first use, so its vertex ids must be integers
    that fit in int64 (ValidationError otherwise). ``entries``, the
    ``((verts, scale), ...)`` view, is built on first access and cached; it
    shares one int object per vertex id and one float object per value.
    Instances are immutable.
    """

    __slots__ = ("max_dim", "_entries", "_arrays")

    def __init__(self, entries, max_dim: int):
        entries = tuple(entries)
        for verts, scale in entries:
            if len(verts) - 1 > max_dim:
                raise ValidationError(
                    f"simplex {verts} exceeds dimension cap {max_dim}")
            if not (scale >= 0.0):
                raise ValidationError(f"negative or NaN scale for {verts}")
        object.__setattr__(self, "max_dim", max_dim)
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_arrays", None)

    @classmethod
    def _from_arrays(cls, faces: list, positions: list, scales: np.ndarray,
                     max_dim: int) -> "Filtration":
        """A filtration in the array form: ``faces[k]`` the k-simplices as
        rows of point indices (non-negative, as a builder makes them),
        ``positions[k]`` their positions in filtration order, ``scales``
        the values in filtration order."""
        filt = cls.__new__(cls)
        object.__setattr__(filt, "max_dim", max_dim)
        object.__setattr__(filt, "_entries", None)
        object.__setattr__(filt, "_arrays", (faces, positions, scales))
        if len(faces) - 1 > max_dim:
            raise ValidationError(
                f"{len(faces) - 1}-simplices exceed dimension cap {max_dim}")
        bad = np.flatnonzero(~(scales >= 0.0))
        if len(bad):
            raise ValidationError(
                f"negative or NaN scale for {filt.entries[bad[0]][0]}")
        return filt

    def _array_form(self) -> tuple:
        """``(faces, positions, scales)``, derived from the entries once."""
        if self._arrays is None:
            top = max((len(verts) for verts, _ in self._entries), default=0)
            rows = [[] for _ in range(top)]
            positions = [[] for _ in range(top)]
            for p, (verts, _) in enumerate(self._entries):
                if not verts:
                    raise ValidationError("a simplex needs at least one vertex")
                rows[len(verts) - 1].append(verts)
                positions[len(verts) - 1].append(p)
            arrays = ([_vertex_rows(r, k + 1) for k, r in enumerate(rows)],
                      [np.array(p, dtype=np.int64) for p in positions],
                      np.array([s for _, s in self._entries], dtype=float))
            object.__setattr__(self, "_arrays", arrays)
        return self._arrays

    def _dims(self) -> np.ndarray:
        """Each simplex's dimension, in filtration order."""
        _, positions, scales = self._array_form()
        dims = np.empty(len(scales), dtype=np.int64)
        for k, pos in enumerate(positions):
            dims[pos] = k
        return dims

    @property
    def entries(self) -> tuple:
        """``((verts, scale), ...)`` in filtration order."""
        if self._entries is None:
            faces, positions, scales = self._arrays
            top = max((int(f.max()) for f in faces if f.size), default=-1)
            ids = np.arange(top + 1).astype(object)
            verts = np.empty(len(scales), dtype=object)
            for f, pos in zip(faces, positions):
                verts[pos] = _row_tuples(ids[f])
            entries = tuple(zip(verts.tolist(), _shared_floats(scales)))
            object.__setattr__(self, "_entries", entries)
        return self._entries

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Filtration, (self.entries, self.max_dim)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.max_dim, self.entries) == (other.max_dim, other.entries)

    def __hash__(self):
        return hash((self.entries, self.max_dim))

    def __repr__(self):
        return f"Filtration(entries={self.entries!r}, max_dim={self.max_dim!r})"

    def __len__(self) -> int:
        if self._entries is None:
            return len(self._arrays[2])
        return len(self._entries)

    def simplices(self):
        return tuple(verts for verts, _ in self.entries)

    def simplex_set(self) -> frozenset:
        return frozenset(verts for verts, _ in self.entries)

    def scale_of(self) -> dict:
        return {verts: scale for verts, scale in self.entries}


def _first_unsorted(filt: Filtration) -> int:
    """Position of the first entry whose (scale, dimension, vertices) key is
    below its predecessor's, or len(filt) when there is none."""
    faces, positions, scales = filt._array_form()
    n = len(scales)
    if n < 2:
        return n
    dims = filt._dims()
    verts = np.zeros((n, len(faces)), dtype=np.int64)
    for rows, pos in zip(faces, positions):
        verts[pos, :rows.shape[1]] = rows
    lower = scales[1:] < scales[:-1]
    tied = scales[1:] == scales[:-1]
    lower |= tied & (dims[1:] < dims[:-1])
    tied &= dims[1:] == dims[:-1]
    differ = verts[1:] != verts[:-1]
    col = differ.argmax(axis=1)
    row = np.arange(n - 1)
    lower |= (tied & differ[row, col]
              & (verts[1:][row, col] < verts[:-1][row, col]))
    bad = np.flatnonzero(lower)
    return int(bad[0]) + 1 if len(bad) else n


def _packed_keys(rows: np.ndarray) -> list:
    """Sort keys of an int64 array's rows, most significant first: each
    vertex id minus the smallest takes as many bits as the largest
    difference needs, and as many columns share one uint64 key as fit, so
    the keys order the rows lexicographically and tie only on equal rows."""
    lo = int(rows.min(initial=0))
    bits = max(1, (int(rows.max(initial=0)) - lo).bit_length())
    per = max(1, 64 // bits)
    shifted = rows.astype(np.uint64) - np.uint64(lo % (1 << 64))
    keys = []
    for start in range(0, rows.shape[1], per):
        key = shifted[:, start]
        for c in range(start + 1, min(start + per, rows.shape[1])):
            key = (key << np.uint64(bits)) | shifted[:, c]
        keys.append(key)
    return keys


def _match_facets(rows, pos, cofaces, n) -> tuple:
    """One lexsort of the k-simplices ``rows`` (at positions ``pos``)
    together with every facet of the (k+1)-simplices ``cofaces``.

    Returns the first position at which a row repeats an earlier one (n if
    none) and an (m, k+2) array giving, for each coface and each dropped
    column, the position of that facet among ``rows`` (-1 when missing).
    Equal rows must come in position order, as they do in the form derived
    from entries (a builder's rows are distinct).
    """
    m = len(rows)
    facets = [np.delete(cofaces, c, axis=1) for c in range(cofaces.shape[1])]
    stacked = np.concatenate([rows] + facets)
    del facets
    # Position of each stacked row, -1 for a facet. The sort is stable, so
    # a run of equal rows starts with its simplices, in order, and a facet
    # whose run starts with a facet has no face row.
    where = np.concatenate([pos, np.full(len(stacked) - m, -1)])
    keys = _packed_keys(stacked)
    del stacked
    perm = np.lexsort(keys[::-1])
    head = np.zeros(len(perm), dtype=bool)
    head[:1] = True
    for key in keys:
        ordered = key[perm]
        head[1:] |= ordered[1:] != ordered[:-1]
    del keys, ordered
    is_row = perm < m
    repeats = where[perm[is_row & ~head]]
    first = perm[np.maximum.accumulate(
        np.where(head, np.arange(len(perm)), 0))]
    facet_pos = np.empty(len(perm) - m, dtype=np.int64)
    facet_pos[perm[~is_row] - m] = where[first[~is_row]]
    return (int(repeats.min()) if len(repeats) else n,
            facet_pos.reshape(cofaces.shape[1], len(cofaces)).T)


def boundary_columns(filt: Filtration) -> tuple:
    """The one filtration check, on the array form: each entry's sorted face
    positions as a tuple, in filtration order.

    Raises, for the first offending entry, UnsortedFiltration when its
    ``_sort_key`` is below its predecessor's, or InvalidFiltration on a
    simplex listed twice (both checked before any face lookup), then
    InvalidFiltration on a missing face or a face after its coface. Order
    compares adjacent keys; duplicates and faces come from one lexsort per
    dimension that matches each facet row to its face row; face before
    coface compares positions. The columns share one int per position.
    """
    faces, positions, scales = filt._array_form()
    n = len(scales)
    repeat, facet_pos = n, [None]
    for k in range(len(faces)):
        above = (faces[k + 1] if k + 1 < len(faces)
                 else np.empty((0, k + 2), dtype=np.int64))
        first, found = _match_facets(faces[k], positions[k], above, n)
        repeat = min(repeat, first)
        facet_pos.append(found)
    unsorted = _first_unsorted(filt)
    if min(repeat, unsorted) < n:
        verts = filt.entries[min(repeat, unsorted)][0]
        if repeat <= unsorted:
            raise InvalidFiltration(f"simplex {verts} listed twice")
        raise UnsortedFiltration(f"{verts} is out of order (use sort_filtration)")
    worst = (n, 0, 0)  # (coface position, dimension, row)
    for k in range(1, len(faces)):
        pos = positions[k]
        bad = ((facet_pos[k] < 0) | (facet_pos[k] > pos[:, None])).any(axis=1)
        if bad.any():
            r = int(np.flatnonzero(bad)[pos[bad].argmin()])
            worst = min(worst, (int(pos[r]), k, r))
    if worst[0] < n:
        j, k, r = worst
        found = facet_pos[k][r]
        drop = int(np.flatnonzero((found < 0) | (found > j)).max())
        verts, scale = filt.entries[j]
        face = verts[:drop] + verts[drop + 1:]
        if found[drop] < 0:
            raise InvalidFiltration(f"face {face} of {verts} is missing")
        raise InvalidFiltration(
            f"face {face} (scale {filt.entries[found[drop]][1]}) appears after "
            f"coface {verts} (scale {scale})")
    ids = np.arange(n).astype(object)
    columns = np.empty(n, dtype=object)
    columns.fill(())
    for k in range(1, len(faces)):
        columns[positions[k]] = _row_tuples(ids[np.sort(facet_pos[k], axis=1)])
        facet_pos[k] = None
    return tuple(columns.tolist())


def sort_filtration(filt: Filtration) -> Filtration:
    """Canonically order a filtration by (scale, dimension, vertex tuple),
    then run the one filtration check, ``boundary_columns``, on the result
    (InvalidFiltration on a duplicate, a missing face or a face with a larger
    scale than its coface). Idempotent and deterministic."""
    ordered = Filtration(entries=sorted(filt.entries, key=_sort_key),
                         max_dim=filt.max_dim)
    boundary_columns(ordered)
    return ordered


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

