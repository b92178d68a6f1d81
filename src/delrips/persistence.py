"""Z2 boundary matrices, column reduction, and persistence pairs.

Columns are sparse sorted row-index lists; Z2 column addition is a
symmetric-difference merge, so the pivot (largest index) sits at the end of
the list. ``reduce_standard`` is the textbook left-to-right reduction;
``reduce_twist`` processes dimensions from high to low and clears columns
whose simplices are already known to be paired, which computes the same
pairing faster on larger inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Filtration, PersistenceDiagram, boundary_columns


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
    missing face or a face that comes after its coface.
    """
    entries = filt.entries
    return BoundaryMatrix(columns=tuple(boundary_columns(entries)),
                          dims=tuple(len(verts) - 1 for verts, _ in entries),
                          scales=tuple(scale for _, scale in entries))


def _sym_diff(a: list, b) -> list:
    """Z2 sum of two strictly increasing index lists."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def _reduce(mat: BoundaryMatrix, order) -> ReducedMatrix:
    """Reduce the columns in the given order until all pivots are distinct.

    Whenever column j acquires pivot i, simplex i is known to be a cycle
    creator, so column i is cleared without reduction if it comes later.
    Left to right, i < j was already reduced and clearing never fires.
    """
    cols = [list(c) for c in mat.columns]
    pivot_owner = {}
    lows = [None] * len(cols)
    cleared = set()
    for j in order:
        if j in cleared:
            cols[j] = []
            continue
        col = cols[j]
        while col:
            k = pivot_owner.get(col[-1])
            if k is None:
                break
            col = _sym_diff(col, cols[k])
        cols[j] = col
        if col:
            pivot_owner[col[-1]] = j
            lows[j] = col[-1]
            cleared.add(col[-1])
    return ReducedMatrix(columns=tuple(tuple(c) for c in cols),
                         low=tuple(lows), dims=mat.dims, scales=mat.scales)


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
    paired = set()
    pairs: dict = {}
    for j, piv in enumerate(reduced.low):
        if piv is None:
            continue
        paired.add(piv)
        paired.add(j)
        p = dims[piv]
        if p <= max_hom:
            pairs.setdefault(p, []).append((scales[piv], scales[j]))
    for j, piv in enumerate(reduced.low):
        if piv is None and j not in paired:
            p = dims[j]
            if p <= max_hom:
                pairs.setdefault(p, []).append((scales[j], math.inf))
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
