"""Shared domain types: point clouds, simplices, filtrations, diagrams.

A point cloud's one form is a read-only (n, dim) float64 array, and a
filtration's is integer arrays (see ``Filtration``); each is converted and
checked once when it is made. A simplex is a strictly increasing tuple of
point indices; its dimension is ``len(verts) - 1``. ``Filtration._from_arrays``
is the one step that makes the canonical filtration order and
``boundary_csr`` the one check of it (order, duplicates, closure, face
before coface). All types are immutable after construction.
Every raw (birth, death) pair is read by ``_pair_array``; the one pair rule,
``_check_pairs``, runs there and in ``PersistenceDiagram._store``. A diagram's
one form is three arrays in the canonical pair order, and its tuple views
(``entries``, ``pairs``) are built from them when read.

Every face lookup gathers facets by ``_facet_rows`` and sorts rows by
``_row_order``, the one row order: a stable lexsort of packed uint64 keys.

Every numeric argument is checked by ``_check_int`` or ``_check_real``, the
one number rule: bools, non-reals, NaN, ints beyond the float range and, unless
allowed, infinities fail with ``<name> must be <rule>, got <value>``.

``distances`` is the one point-distance formula, exact under scaling by a
power of two (see there); ``distance_blocks`` runs it over
an n x m array in row blocks, and ``_sweep_pairs`` yields, in chunks, only
the pairs a sorted sweep cannot rule out at a given distance, so no input
size holds the whole array. ``_blocks`` cuts rows into those chunks of
about ``_BLOCK`` entries, for them, for the bottleneck search and for the
persistence-image sums.
"""

from __future__ import annotations

import math
import sys
from dataclasses import FrozenInstanceError, dataclass
from numbers import Integral, Real
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidFiltration, UnsortedFiltration, ValidationError

INF = math.inf
_FLOAT_MIN = sys.float_info.min
# Entries per chunk of ``_blocks``: bounds the temporaries of every blocked
# computation (distance arrays, sweep pairs, bottleneck bands, image terms).
_BLOCK = 1 << 16
# Relative widening of a sweep window (see ``_sweep_pairs``).
_SWEEP_SLACK = 2.0 ** -20
_INT64_MAX = np.iinfo(np.int64).max


def _check_int(name: str, v, low: int) -> None:
    """``_check_real`` for an int >= ``low``."""
    _check_real(name, v, low, integer=True)


def _check_real(name: str, v, low: float = -INF, *, above: bool = False,
                below: float = INF, finite: bool = True,
                integer: bool = False) -> None:
    """ValidationError unless ``v`` is a real number (an int if ``integer``)
    within the float range, not a bool or NaN, at least ``low`` (above it
    if ``above``), below ``below`` and, if ``finite``, not infinite."""
    kind = Integral if integer else Real
    try:
        x = float(v) if isinstance(v, kind) and not isinstance(v, bool) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.nan
    within = (x > low if above else x >= low) and (x < below or x == below == INF)
    if not (within and (abs(x) < INF or not finite)):
        what = "an integer" if integer else f"a {'finite ' * finite}number"
        rule = ([f"{'>' if above else '>='} {low}"] * (low > -INF)
                + [f"< {below}"] * (below < INF))
        raise ValidationError(f"{name} must be {' '.join([what] + rule)}, got {v!r}")


@dataclass(frozen=True)
class PointCloud:
    """Finite ordered list of points in R^2 or R^3 with stable indices.

    ``points`` is a read-only (n, dim) float64 array, converted and checked
    once here: a rectangular array of numbers is copied in one numpy pass,
    anything else (ragged rows, None, strings) converts point by point, so
    it raises as ``float()`` does. Every point must have ``dim``
    coordinates, all finite; the first offending point is named in the
    ValidationError. Clouds compare by value (-0.0 equals 0.0).
    """

    points: np.ndarray
    dim: int

    def __post_init__(self):
        dim = self.dim
        if dim not in (2, 3):
            raise ValidationError(f"ambient dimension must be 2 or 3, got {dim}")
        try:
            arr = np.asarray(self.points)
        except ValueError:  # ragged rows
            arr = None
        wrong = None
        if arr is not None and arr.shape[1:] == (dim,) and arr.dtype.kind in "biuf":
            pts = np.array(arr, dtype=float)
        else:
            rows = [tuple(map(float, p)) for p in self.points]
            first = next((i for i, p in enumerate(rows) if len(p) != dim),
                         len(rows))
            # The points before the first wrong length are checked for
            # finiteness first, so the error names the earliest bad point.
            pts = np.array(rows[:first], dtype=float).reshape(first, dim)
            wrong = rows[first] if first < len(rows) else None
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if len(bad):
            raise ValidationError(
                f"non-finite coordinate in point {tuple(pts[bad[0]].tolist())}")
        if wrong is not None:
            raise ValidationError(f"point {wrong} does not have {dim} coordinates")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, points: Sequence[Sequence[float]]) -> "PointCloud":
        """A cloud of the given points, its dimension that of the first;
        ValidationError when there are none."""
        points = points if isinstance(points, np.ndarray) else list(points)
        if not len(points):
            raise ValidationError("point cloud is empty")
        return cls(points=points, dim=len(points[0]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.points, other.points)

    def __hash__(self):
        return hash((self.dim, (self.points + 0.0).tobytes()))

    def __reduce__(self):
        return PointCloud, (self.points, self.dim)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.points[i]


def _vertex_rows(rows: list, width: int) -> np.ndarray:
    """Vertex tuples of one length as an (m, width) int64 array; raises
    ValidationError on an id that is not an integer or does not fit in
    int64."""
    if not rows:
        return np.empty((0, width), dtype=np.int64)
    message = "vertex ids must be integers that fit in int64"
    try:
        arr = np.array(rows)
    except ValueError:  # ids that are sequences of different lengths
        raise ValidationError(message) from None
    kind = arr.dtype.kind
    if (kind not in "biu" or arr.shape != (len(rows), width)
            or (kind == "u" and arr.max() > _INT64_MAX)):
        raise ValidationError(message)
    return arr.astype(np.int64)


def _vertex_objects(faces: list) -> list:
    """Each int64 array of ``faces`` as Python ints, one object per id when
    the ids span fewer values than the arrays hold (a builder's run 0..n-1)."""
    lo = min((int(f.min()) for f in faces if f.size), default=0)
    top = max((int(f.max()) for f in faces if f.size), default=-1)
    if top - lo >= sum(f.size for f in faces):
        return [f.astype(object) for f in faces]
    ids = (lo + np.arange(top - lo + 1)).astype(object)
    return [ids[f - lo] for f in faces]


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


class _Frozen:
    """Refuses attribute assignment and deletion, as a frozen dataclass
    does; the constructors set their slots with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Filtration(_Frozen):
    """Simplices with monotone scales, capped at dimension ``max_dim``.

    ``max_dim``, an int >= 0, records the cap the builder used (simplices
    above it were discarded), which also bounds the homology dimensions
    that persistence can report; it may exceed the largest dimension present.

    Its one form is integer arrays: for each dimension k the k-simplices as
    an (m_k, k+1) int64 array and each row's position in filtration order,
    plus the float64 scales in filtration order. The builders make it with
    ``_from_arrays``; ``Filtration(entries, max_dim)`` converts at once, so
    vertex ids must be integers that fit in int64, simplices non-empty and
    scales real numbers (ValidationError otherwise). Both end in ``_check``.
    ``entries``, the ``((verts, scale), ...)`` view, is the tuple given, or
    is built on first access and cached, sharing one float object per value.
    """

    __slots__ = ("max_dim", "_entries", "_arrays")

    def __init__(self, entries, max_dim: int):
        entries = tuple(entries)
        sizes = np.array([len(verts) for verts, _ in entries], dtype=np.int64)
        if (sizes == 0).any():
            raise ValidationError("a simplex needs at least one vertex")
        positions = [np.flatnonzero(sizes == k)
                     for k in range(1, sizes.max(initial=0) + 1)]
        faces = [_vertex_rows([entries[p][0] for p in pos.tolist()], k + 1)
                 for k, pos in enumerate(positions)]
        for verts, s in entries:
            if not isinstance(s, Real):
                raise ValidationError(f"non-real scale {s!r} for {verts}")
        try:
            scales = np.array([s for _, s in entries], dtype=float)
        except OverflowError:  # an int or fraction beyond the float range
            raise ValidationError("a scale does not fit in a float") from None
        self._check(max_dim, entries, (faces, positions, scales))

    @classmethod
    def _from_arrays(cls, faces: list, scales: np.ndarray,
                     max_dim: int) -> "Filtration":
        """The one ordering step of all three builders and of
        ``sort_filtration``: ``faces[k]`` lists the k-simplices
        lexicographically as int64 rows, and ``scales`` has one value per
        row of ``faces[0]``, ``faces[1]``, ... in turn, so a stable sort by
        scale gives the filtration order and each row's position in it."""
        order = np.argsort(scales, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        positions = np.split(position, np.cumsum([len(f) for f in faces[:-1]]))
        filt = cls.__new__(cls)
        filt._check(max_dim, None, (faces, positions, scales[order]))
        return filt

    def _check(self, max_dim, entries, arrays) -> None:
        """Store the form, then the one constructor check: ``max_dim`` an int
        >= 0, then a ValidationError naming the first entry in filtration
        order above the cap or with a negative or NaN scale."""
        _check_int("max_dim", max_dim, 0)
        object.__setattr__(self, "max_dim", max_dim)
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_arrays", arrays)
        _, positions, scales = arrays
        over = [int(pos.min()) for pos in positions[max_dim + 1:] if len(pos)]
        bad = np.flatnonzero(~(scales >= 0.0))[:1].tolist()
        if over or bad:
            first = min(over + bad)
            verts = self.entries[first][0]
            if first in over:
                raise ValidationError(
                    f"simplex {verts} exceeds dimension cap {max_dim}")
            raise ValidationError(f"negative or NaN scale for {verts}")

    @property
    def entries(self) -> tuple:
        """``((verts, scale), ...)`` in filtration order."""
        if self._entries is None:
            faces, positions, scales = self._arrays
            verts = np.empty(len(scales), dtype=object)
            for ids, pos in zip(_vertex_objects(faces), positions):
                verts[pos] = _row_tuples(ids)
            entries = tuple(zip(verts.tolist(), _shared_floats(scales)))
            object.__setattr__(self, "_entries", entries)
        return self._entries

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
        return len(self._arrays[2])


def _first_unsorted(filt: Filtration) -> int:
    """Position of the first entry whose (scale, dimension, vertices) key is
    below its predecessor's, or len(filt) when there is none."""
    faces, positions, scales = filt._arrays
    keys = np.zeros((len(scales), len(faces) + 2), dtype=np.int64)
    keys[:, 0] = _float_keys(scales)
    for k, (rows, pos) in enumerate(zip(faces, positions)):
        keys[pos, 1] = k
        keys[pos, 2:k + 3] = rows
    # Each adjacent pair compares at its first differing column.
    col = (keys[1:] != keys[:-1]).argmax(axis=1)
    row = np.arange(len(col))
    bad = np.flatnonzero(keys[1:][row, col] < keys[:-1][row, col])
    return int(bad[0]) + 1 if len(bad) else len(scales)


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


def _facet_rows(rows: np.ndarray) -> np.ndarray:
    """The facets of an (m, k+1) array's rows as an (m(k+1), k) array, row
    by row: row r(k+1) + i is row r without its column i."""
    m, width = rows.shape
    keep = [[j for j in range(width) if j != i] for i in range(width)]
    return rows[:, keep].reshape(m * width, width - 1)


def _row_order(rows: np.ndarray) -> tuple:
    """The one row order: the stable lexicographic order of an int64 array's
    rows, by one lexsort of their ``_packed_keys``, and a mask, in that
    order, of the rows that start a run of equal rows."""
    keys = _packed_keys(rows)
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    return order, new


def _float_keys(values: np.ndarray) -> np.ndarray:
    """int64 keys in the order of float64 ``values`` (none NaN), equal
    exactly where the values compare equal: -0.0 gets the key of 0.0."""
    bits = (values + 0.0).view(np.int64)
    return np.where(bits < 0, bits ^ _INT64_MAX, bits)


def _match_facets(rows, pos, cofaces, n) -> tuple:
    """One ``_row_order`` of the k-simplices ``rows`` (at positions ``pos``)
    together with every facet of the (k+1)-simplices ``cofaces``.

    Returns the first position at which a row repeats an earlier one (n if
    none) and an (m, k+2) array giving, for each coface and each dropped
    column, the position of that facet among ``rows`` (-1 when missing).
    Equal rows must come in position order, as they do in the form converted
    from entries and in ``sort_filtration``'s (a builder's rows are distinct).
    """
    m = len(rows)
    stacked = np.concatenate([rows, _facet_rows(cofaces)])
    # Position of each stacked row, -1 for a facet. The sort is stable, so
    # a run of equal rows starts with its simplices, in order, and a facet
    # whose run starts with a facet has no face row.
    where = np.concatenate([pos, np.full(len(stacked) - m, -1)])
    perm, head = _row_order(stacked)
    del stacked
    is_row = perm < m
    repeats = where[perm[is_row & ~head]]
    first = perm[np.maximum.accumulate(
        np.where(head, np.arange(len(perm)), 0))]
    facet_pos = np.empty(len(perm) - m, dtype=np.int64)
    facet_pos[perm[~is_row] - m] = where[first[~is_row]]
    return (int(repeats.min()) if len(repeats) else n,
            facet_pos.reshape(cofaces.shape))


def boundary_csr(filt: Filtration) -> tuple:
    """The one filtration check, on the array form: each entry's sorted face
    positions in compressed sparse form, ``(indptr, indices)``, in
    filtration order, so that entry j's faces are
    ``indices[indptr[j]:indptr[j + 1]]``.

    Raises, for the first offending entry, UnsortedFiltration when its
    (scale, dimension, vertices) key is below its predecessor's, or
    InvalidFiltration on a simplex listed twice (both checked before any
    face lookup), then InvalidFiltration on a missing face or a face after
    its coface. Order compares adjacent keys; duplicates and faces come from
    one ``_row_order`` per dimension that matches each facet row to its face
    row; face before coface compares positions.
    """
    faces, positions, scales = filt._arrays
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
    indptr = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, len(faces)):
        indptr[positions[k] + 1] = k + 1
    np.cumsum(indptr, out=indptr)
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for k in range(1, len(faces)):
        slots = indptr[positions[k]][:, None] + np.arange(k + 1)
        indices[slots] = np.sort(facet_pos[k], axis=1)
        facet_pos[k] = None
    return indptr, indices


def sort_filtration(filt: Filtration) -> Filtration:
    """Canonically order a filtration by (scale, dimension, vertex tuple),
    then run the one filtration check, ``boundary_csr``, on the result
    (InvalidFiltration on a duplicate, a missing face or a face with a larger
    scale than its coface). Idempotent and deterministic. Each dimension's
    rows go in scale order, then in the stable ``_row_order``, to
    ``Filtration._from_arrays``, so repeated rows stay in scale order."""
    faces, positions, scales = filt._arrays
    rows, row_scales = [], [np.empty(0)]  # one array even with no rows
    for f, pos in zip(faces, positions):
        by_scale = np.argsort(scales[pos], kind="stable")
        take = by_scale[_row_order(f[by_scale])[0]]
        rows.append(f[take])
        row_scales.append(scales[pos[take]])
    ordered = Filtration._from_arrays(rows, np.concatenate(row_scales),
                                      filt.max_dim)
    boundary_csr(ordered)
    return ordered


def _check_pairs(births: np.ndarray, deaths: np.ndarray) -> None:
    """The pair rule: ValidationError naming the first pair with a birth not
    finite, a NaN death or birth > death (deaths may be inf)."""
    bad = np.flatnonzero(~(np.isfinite(births) & (births <= deaths)))
    if len(bad):
        raise ValidationError(f"invalid pair: birth {float(births[bad[0]])}, "
                              f"death {float(deaths[bad[0]])}")


def _pair_array(pairs) -> np.ndarray:
    """(birth, death) pairs as a (k, 2) float64 array, in one numpy pass (a
    None reads as NaN), checked by ``_check_pairs``; else ValidationError."""
    pairs = pairs if isinstance(pairs, np.ndarray) else list(pairs)
    try:
        arr = np.array(pairs, dtype=float)  # ValueError on ragged pairs
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"a pair is not two numbers: {exc}") from None
    if arr.shape != (0,) and arr.shape[1:] != (2,):
        raise ValidationError(f"a pair is not two numbers: shape {arr.shape}")
    arr = arr.reshape(-1, 2)
    _check_pairs(arr[:, 0], arr[:, 1])
    return arr


class PersistenceDiagram(_Frozen):
    """Multiset of (birth, death) pairs per homology dimension.

    Deaths may be ``math.inf`` for essential classes. Zero-persistence pairs
    (birth == death) are retained; use ``drop_zero`` for the filtered view.

    Its one form is three read-only arrays in canonical order: ``dims``
    (int64), ``births`` and ``deaths`` (float64). ``_from_arrays``,
    ``from_pairs`` and ``PersistenceDiagram(entries)`` all end in ``_store``,
    the one check and order. ``entries``, the ``((dim, birth, death), ...)``
    view of Python ints and floats, is built on first access and cached;
    ``pairs(dim)`` builds its tuples on each call. Diagrams compare by value
    (-0.0 equals 0.0).
    """

    __slots__ = ("dims", "births", "deaths", "_entries")

    def __init__(self, entries=()):
        entries = list(entries)
        rows = _pair_array([(birth, death) for _, birth, death in entries])
        dims = np.array([int(dim) for dim, _, _ in entries], dtype=np.int64)
        self._store(dims, rows[:, 0], rows[:, 1])

    @classmethod
    def from_pairs(cls, pairs_by_dim: Mapping[int, Iterable]) -> "PersistenceDiagram":
        arrays = [_pair_array(pairs) for pairs in pairs_by_dim.values()]
        dims = np.repeat([int(dim) for dim in pairs_by_dim],
                         [len(a) for a in arrays]).astype(np.int64)
        rows = np.concatenate(arrays + [np.empty((0, 2))])
        return cls._from_arrays(dims, rows[:, 0], rows[:, 1])

    @classmethod
    def _from_arrays(cls, dims: np.ndarray, births: np.ndarray,
                     deaths: np.ndarray) -> "PersistenceDiagram":
        """The diagram of the rows ``(dims[r], births[r], deaths[r])``."""
        diag = cls.__new__(cls)
        diag._store(dims, births, deaths)
        return diag

    def _store(self, dims, births, deaths) -> None:
        """``_check_pairs`` on every row, whose first failing row raises,
        then store the rows in ``_row_order``, which is stable, so rows that
        compare equal (0.0 and -0.0 births, say) keep their given order."""
        _check_pairs(births, deaths)
        order, _ = _row_order(np.column_stack(
            [dims, _float_keys(births), _float_keys(deaths)]))
        for name, values, dtype in (("dims", dims, np.int64),
                                    ("births", births, float),
                                    ("deaths", deaths, float)):
            values = np.asarray(values, dtype=dtype)[order]
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        object.__setattr__(self, "_entries", None)

    @property
    def entries(self) -> tuple:
        """``((dim, birth, death), ...)`` in canonical order."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(zip(
                self.dims.tolist(), self.births.tolist(), self.deaths.tolist())))
        return self._entries

    def _pair_rows(self, dim: int) -> np.ndarray:
        """The (birth, death) pairs of dimension ``dim`` as a (k, 2) array."""
        keep = self.dims == dim
        return np.column_stack([self.births[keep], self.deaths[keep]])

    def pairs(self, dim: int) -> tuple:
        births, deaths = self._pair_rows(dim).T.tolist()
        return tuple(zip(births, deaths))

    def drop_zero(self) -> "PersistenceDiagram":
        keep = self.births != self.deaths
        return PersistenceDiagram._from_arrays(
            self.dims[keep], self.births[keep], self.deaths[keep])

    def __reduce__(self):
        return PersistenceDiagram, (self.entries,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self.dims, other.dims)
                and np.array_equal(self.births, other.births)
                and np.array_equal(self.deaths, other.deaths))

    def __hash__(self):
        return hash((self.dims.tobytes(), (self.births + 0.0).tobytes(),
                     (self.deaths + 0.0).tobytes()))

    def __repr__(self):
        return f"PersistenceDiagram(entries={self.entries!r})"

    def __len__(self) -> int:
        return len(self.dims)


def distances(a, b) -> np.ndarray:
    """Distances between the points of ``a`` and ``b``, two broadcastable
    ``(..., d)`` arrays with d = 2 or 3: sqrt of the squared differences
    summed in coordinate order, elementwise. Every point distance in the
    package comes from here, so a pair always gets the same bits.

    A row whose sum is not a normal float (coordinates near 1e-200 or 1e160)
    is summed again on its differences times 2**-e, e the exponent of the
    largest, and its root scaled back, so scaling a cloud by 2**p scales
    each value by 2**p bit for bit (barring subnormal terms in a normal sum).
    """
    with np.errstate(over="ignore", under="ignore"):
        diff = np.subtract(a, b, dtype=float)
        out, s = _norms(diff)
        bad = ~((s >= _FLOAT_MIN) & (s < INF))
        if bad.any():
            e = np.frexp(np.abs(diff[bad]).max(axis=-1))[1]
            out[bad] = np.ldexp(_norms(np.ldexp(diff[bad], -e[:, None]))[0], e)
    return out


def _norms(diff) -> tuple:
    """sqrt of the sum of squares along the last axis, in order, and the sum."""
    s = sum(diff[..., k] * diff[..., k] for k in range(diff.shape[-1]))
    return np.sqrt(s, out=np.empty(np.shape(s))), s


def distance_blocks(a: np.ndarray, b: np.ndarray):
    """The (len(a), len(b)) array of ``distances`` between the rows of two
    (n, d) arrays, as ``(rows, block)`` pairs of about ``_BLOCK`` entries
    each, so that no caller holds the whole array at once. Hausdorff needs
    every entry; the minimum distance and the pairing check need only the
    pairs ``_sweep_pairs`` yields."""
    for rows in _blocks(np.full(len(a), len(b))):
        yield rows, distances(a[rows, None, :], b)


def _blocks(size):
    """Slices of consecutive rows, given each row's number of entries: each
    takes one row, then further rows while its entries stay within
    ``_BLOCK`` (so a longer row is a chunk of its own)."""
    ends = np.cumsum(size)
    start = 0
    while start < len(ends):
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _BLOCK, "right")))
        yield slice(start, stop)
        start = stop


def _expand(start, stop):
    """Every index of the ranges ``[start, stop)`` in turn, and the ranges'
    sizes."""
    size = stop - start
    offset = np.cumsum(size) - size
    return np.arange(int(size.sum())) + np.repeat(start - offset, size), size


def _sweep_pairs(a: np.ndarray, b: np.ndarray, r: float):
    """Index arrays ``(i, j)`` into the rows of two (n, d) arrays, in chunks
    of about ``_BLOCK`` pairs, that cover every pair whose ``distances``
    value is below r: every pair left out has a value of at least r.

    The rows of b are sorted along one axis, and each row of a takes, by
    ``searchsorted``, the rows of b whose coordinate there lies within its
    window: r widened by ``_SWEEP_SLACK`` and by two ulps of the row's own
    coordinate. A pair outside the window is at least r apart on that axis
    alone. ``distances`` gives a scaled row at least its largest difference
    (sqrt(fl(m * m)) = |m| and rounding is monotone), and an unscaled row's
    roundings are relative; the widening is a margin over them. The axis is
    the one whose windows hold the fewest pairs, counted before any distance
    is computed.
    """
    best = None
    for k in range(a.shape[1]):
        order = np.argsort(b[:, k], kind="stable")
        keys, x = b[order, k], a[:, k]
        with np.errstate(over="ignore"):
            pad = r * (1.0 + _SWEEP_SLACK) + 2.0 * np.spacing(np.abs(x))
            lo = np.searchsorted(keys, x - pad, "left")
            hi = np.searchsorted(keys, x + pad, "right")
        count = hi - lo
        total = int(count.sum())
        if best is None or total < best[0]:
            best = (total, order, lo, count)
    _, order, lo, count = best
    for rows in _blocks(count):
        # Row i's pairs take the sorted positions lo[i], lo[i] + 1, ... of b.
        j, size = _expand(lo[rows], lo[rows] + count[rows])
        yield np.repeat(np.arange(rows.start, rows.stop), size), order[j]


def pairwise_distances(cloud: PointCloud) -> list:
    """Dense symmetric distance matrix as nested lists, by ``distances``.

    Only the benchmark's probe and the tests read it (no builder does); it
    goes with that probe (ROADMAP item 1).
    """
    return [row for _, block in distance_blocks(cloud.points, cloud.points)
            for row in block.tolist()]

