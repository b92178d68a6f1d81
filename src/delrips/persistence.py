"""Z2 boundary matrices, column reduction, and persistence pairs.

A boundary matrix is held in compressed sparse column form in filtration
order: column j is ``indices[indptr[j]:indptr[j + 1]]``, the sorted
positions of simplex j's facets, so its pivot (the youngest facet) is its
last entry. ``boundary_matrix`` takes these arrays from
``core.boundary_csr``, the one filtration check; the matrices' ``columns``
tuple views are built from the arrays on each read.

``reduce_standard`` is the textbook left-to-right reduction, the reference.
``reduce_twist``, which ``compute_diagram`` runs, gives the same pivots and
columns. It first finds the apparent pairs in numpy (Bauer 2021): column j
and its youngest facet i when j is the oldest cofacet of i, a persistence
pair whose column is already reduced. They seed the pivots; the other
columns are reduced from high dimensions to low, each pivot clearing a
column of the next dimension (Chen-Kerber 2011). Z2 column addition is a
symmetric difference that keeps a column sorted; only the columns that an
addition changes are stored. ``extract_pairs`` reads the diagram off the
pivots in numpy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import Filtration, PersistenceDiagram, _row_tuples, boundary_csr


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Sparse boundary of each simplex, in filtration order: column j is
    ``indices[indptr[j]:indptr[j + 1]]``, strictly increasing row indices;
    ``scale_array`` holds each simplex's scale and ``dim_array`` its
    dimension (one less than its number of facets, 0 for a vertex).
    ``columns``, a tuple of row-index tuples, is built on each read."""

    indptr: np.ndarray
    indices: np.ndarray
    scale_array: np.ndarray

    def __len__(self) -> int:
        return len(self.scale_array)

    @property
    def dim_array(self) -> np.ndarray:
        return np.maximum(np.diff(self.indptr) - 1, 0)

    @property
    def columns(self) -> tuple:
        cols = np.empty(len(self), dtype=object)
        cols.fill(())
        dims = self.dim_array
        for k in range(1, int(dims.max(initial=0)) + 1):
            pos = np.flatnonzero(dims == k)
            rows = self.indices[self.indptr[pos][:, None] + np.arange(k + 1)]
            cols[pos] = _row_tuples(rows)
        return tuple(cols.tolist())


@dataclass(frozen=True, eq=False)
class ReducedMatrix:
    """A reduced boundary matrix: ``low_array`` holds each column's pivot
    row (-1 for a zero column) and ``changed`` the columns that an addition
    changed, as sorted row lists; every other column is the boundary's, or
    zero when its simplex is a pivot row (cleared). ``columns``, the tuple
    view, is built on each read."""

    boundary: BoundaryMatrix
    low_array: np.ndarray
    changed: dict

    @property
    def columns(self) -> tuple:
        cols = list(self.boundary.columns)
        for j, col in self.changed.items():
            cols[j] = tuple(col)
        for i in self.low_array[self.low_array >= 0].tolist():
            cols[i] = ()
        return tuple(cols)


def boundary_matrix(filt: Filtration) -> BoundaryMatrix:
    """Exact Z2 boundary matrix of a canonically sorted filtration.

    The arrays come from ``core.boundary_csr``, the one filtration check:
    UnsortedFiltration when the entries are out of canonical order (use
    ``sort_filtration``), InvalidFiltration on a duplicated simplex, a
    missing face or a face that comes after its coface.
    """
    indptr, indices = boundary_csr(filt)
    return BoundaryMatrix(indptr=indptr, indices=indices,
                          scale_array=filt._arrays[2])


def _add_into(col: list, other) -> list:
    """Z2 sum of two increasing index lists, made in ``col`` (in a copy of
    ``other`` if longer) by bisection of each entry of the shorter."""
    if len(col) < len(other):
        col, other = list(other), col
    i = 0
    for x in other:
        i = bisect_left(col, x, i)
        if i < len(col) and col[i] == x:
            del col[i]
        else:
            col.insert(i, x)
    return col


def _reduce(mat: BoundaryMatrix, order, owner: dict) -> ReducedMatrix:
    """Reduce the columns in the given order until all pivots are distinct.

    ``owner`` maps each pivot row already known to the column that owns it
    (reduced, and left as the boundary's). Whenever column j takes pivot i,
    simplex i is a cycle creator, whose column reduces to zero in any
    reduction, so column i is cleared: the loop skips a column that is
    already a pivot row. Left to right, column i was already reduced to zero
    and this changes nothing; in an order that reaches column i later, it is
    the clearing. Each addition changes the working column in place.
    """
    ptr = mat.indptr
    ind = mat.indices
    changed = {}
    for j in order:
        if j in owner:
            continue
        col = ind[ptr[j]:ptr[j + 1]].tolist()
        while col and col[-1] in owner:
            k = owner[col[-1]]
            col = _add_into(col, changed.get(k)
                            or ind[ptr[k]:ptr[k + 1]].tolist())
            changed[j] = col
        if col:
            owner[col[-1]] = j
    low = np.full(len(mat), -1, dtype=np.int64)
    low[np.fromiter(owner.values(), np.int64, len(owner))] = np.fromiter(
        owner, np.int64, len(owner))
    return ReducedMatrix(boundary=mat, low_array=low, changed=changed)


def reduce_standard(mat: BoundaryMatrix) -> ReducedMatrix:
    """Left-to-right column reduction until all pivots are distinct."""
    return _reduce(mat, range(len(mat)), {})


def _apparent_pairs(mat: BoundaryMatrix) -> tuple:
    """The apparent pairs as two arrays ``(faces, cofaces)``: column j with
    its youngest facet i (its last row) when j is the oldest cofacet of i
    (the first column with row i)."""
    starts, ends = mat.indptr[:-1], mat.indptr[1:]
    cofaces = np.flatnonzero(ends > starts)
    faces = mat.indices[ends[cofaces] - 1]
    oldest = np.full(len(mat), len(mat), dtype=np.int64)
    np.minimum.at(oldest, mat.indices,
                  np.repeat(np.arange(len(mat)), ends - starts))
    apparent = oldest[faces] == cofaces
    return faces[apparent], cofaces[apparent]


def reduce_twist(mat: BoundaryMatrix) -> ReducedMatrix:
    """Apparent pairs, then the clearing reduction: same result as
    reduce_standard.

    The apparent pairs seed the pivots. The other nonzero columns are
    reduced from high dimensions to low (left to right within one), so the
    pivots found in dimension p clear columns of dimension p-1.
    """
    faces, cofaces = _apparent_pairs(mat)
    dims = mat.dim_array
    rest = dims > 0
    rest[faces] = rest[cofaces] = False
    cols = np.flatnonzero(rest)
    order = cols[np.argsort(-dims[cols], kind="stable")]
    return _reduce(mat, order.tolist(),
                   dict(zip(faces.tolist(), cofaces.tolist())))


def extract_pairs(reduced: ReducedMatrix, filt: Filtration) -> PersistenceDiagram:
    """Persistence pairs from a reduced matrix.

    Column j with pivot i kills the class created by simplex i: pair
    (scale_i, scale_j) in dimension dim(i). Zero columns that never become a
    pivot are essential classes with infinite death. Classes of dimension
    above ``filt.max_dim - 1`` are suppressed (their deaths would need
    simplices beyond the cap). The rows are taken in column order.
    """
    low = reduced.low_array
    dims = reduced.boundary.dim_array
    scales = reduced.boundary.scale_array
    paired = low >= 0
    pivot = np.zeros(len(low), dtype=bool)
    pivot[low[paired]] = True
    cols = np.flatnonzero(paired | ~pivot)
    creators = np.where(paired[cols], low[cols], cols)
    deaths = np.where(paired[cols], scales[cols], np.inf)
    keep = dims[creators] <= filt.max_dim - 1
    creators = creators[keep]
    return PersistenceDiagram._from_arrays(dims[creators], scales[creators],
                                           deaths[keep])


def compute_diagram(filt: Filtration) -> PersistenceDiagram:
    """Pipeline helper: boundary matrix -> twist reduction -> pairs."""
    return extract_pairs(reduce_twist(boundary_matrix(filt)), filt)
