"""Z2 boundary matrices, column reduction, and persistence pairs.

Columns are sparse sorted row-index tuples. ``boundary_matrix`` takes them
from ``core.boundary_columns``, the one filtration check, which runs on the
filtration's integer arrays, so a Delaunay-Rips or Alpha diagram never
builds per-simplex vertex tuples. Z2 column addition is a symmetric
difference that keeps a column sorted, so the pivot (largest index) sits
at its end; the reduction works on the boundary tuples as they are and
allocates a list only for a column that an addition changes.
``reduce_standard`` is the textbook left-to-right reduction;
``reduce_twist`` processes dimensions from high to low and clears columns
whose simplices are already known to be paired, which computes the same
pairing faster on larger inputs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .core import (Filtration, PersistenceDiagram, _shared_floats,
                   boundary_columns)


class _SparseColumns:
    def dense(self):
        """0/1 nested lists, for golden-matrix comparisons."""
        n = len(self.columns)
        out = [[0] * n for _ in range(n)]
        for j, col in enumerate(self.columns):
            for i in col:
                out[i][j] = 1
        return out


@dataclass(frozen=True)
class BoundaryMatrix(_SparseColumns):
    """Per-column sparse boundary of each simplex, in filtration order."""

    columns: tuple  # tuple of tuples of row indices, strictly increasing
    dims: tuple
    scales: tuple

    def __len__(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class ReducedMatrix(_SparseColumns):
    columns: tuple
    low: tuple  # per column: pivot row index, or None for a zero column
    dims: tuple
    scales: tuple


def boundary_matrix(filt: Filtration) -> BoundaryMatrix:
    """Exact Z2 boundary matrix of a canonically sorted filtration.

    The columns come from ``core.boundary_columns``, the one filtration
    check: UnsortedFiltration when the entries are out of canonical order
    (use ``sort_filtration``), InvalidFiltration on a duplicated simplex, a
    missing face or a face that comes after its coface. The scales share one
    float object per value.
    """
    columns = boundary_columns(filt)
    return BoundaryMatrix(columns=columns, dims=tuple(filt._dims().tolist()),
                          scales=tuple(_shared_floats(filt._array_form()[2])))


def _sym_diff(a, b) -> list:
    """Z2 sum of two strictly increasing index sequences: a list copy of the
    longer one, with each entry of the shorter deleted or inserted at its
    bisection point (a column addition mostly pairs a long column with a
    short one)."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    i = 0
    for x in b:
        i = bisect_left(out, x, i)
        if i < len(out) and out[i] == x:
            del out[i]
        else:
            out.insert(i, x)
    return out


def _reduce(mat: BoundaryMatrix, order) -> ReducedMatrix:
    """Reduce the columns in the given order until all pivots are distinct.

    Whenever column j takes pivot i, simplex i is a cycle creator, whose
    column reduces to zero in any reduction, so column i is zeroed at once.
    Left to right, column i was already reduced to zero and this changes
    nothing; in an order that reaches column i later, it is the clearing.
    """
    cols = list(mat.columns)
    pivot_owner = {}
    lows = [None] * len(cols)
    for j in order:
        col = cols[j]
        while col:
            k = pivot_owner.get(col[-1])
            if k is None:
                break
            col = _sym_diff(col, cols[k])
        cols[j] = col
        if col:
            i = col[-1]
            pivot_owner[i] = j
            lows[j] = i
            cols[i] = ()
    return ReducedMatrix(columns=tuple(map(tuple, cols)), low=tuple(lows),
                         dims=mat.dims, scales=mat.scales)


def reduce_standard(mat: BoundaryMatrix) -> ReducedMatrix:
    """Left-to-right column reduction until all pivots are distinct."""
    return _reduce(mat, range(len(mat.columns)))


def reduce_twist(mat: BoundaryMatrix) -> ReducedMatrix:
    """Clearing variant: same pairing as reduce_standard.

    Dimensions are processed from high to low (left to right within one),
    so the pivots found in dimension p clear columns of dimension p-1.
    """
    return _reduce(mat, sorted(range(len(mat.columns)),
                               key=mat.dims.__getitem__, reverse=True))


def extract_pairs(reduced: ReducedMatrix, filt: Filtration) -> PersistenceDiagram:
    """Persistence pairs from a reduced matrix.

    Column j with pivot i kills the class created by simplex i: pair
    (scale_i, scale_j) in dimension dim(i). Zero columns that never become a
    pivot are essential classes with infinite death. Classes of dimension
    above ``filt.max_dim - 1`` are suppressed (their deaths would need
    simplices beyond the cap).
    """
    dims = reduced.dims
    scales = reduced.scales
    max_hom = filt.max_dim - 1
    pivots = set(reduced.low)
    pairs: dict = {}
    for j, piv in enumerate(reduced.low):
        if piv is not None:
            p, pair = dims[piv], (scales[piv], scales[j])
        elif j not in pivots:
            p, pair = dims[j], (scales[j], math.inf)
        else:
            continue
        if p <= max_hom:
            pairs.setdefault(p, []).append(pair)
    return PersistenceDiagram.from_pairs(pairs)


def compute_diagram(filt: Filtration, reduction: str = "twist") -> PersistenceDiagram:
    """Pipeline helper: boundary matrix -> reduction -> pairs."""
    mat = boundary_matrix(filt)
    if reduction == "twist":
        red = reduce_twist(mat)
    elif reduction == "standard":
        red = reduce_standard(mat)
    else:
        raise ValueError(f"unknown reduction {reduction!r}")
    return extract_pairs(red, filt)


def persistent_betti(diag: PersistenceDiagram, p: int, i: float, j: float) -> int:
    """Number of dimension-p classes born at or before i and still alive
    strictly after j. Requires i <= j."""
    if i > j:
        raise ValueError("need i <= j")
    return sum(1 for dim, birth, death in diag.entries
               if dim == p and birth <= i and death > j)
