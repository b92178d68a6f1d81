"""Exact bottleneck distance between persistence diagrams.

The optimal value is one of finitely many candidates: the pairwise sup-norm
distances between points of the two diagrams, the per-point diagonal costs,
and the essential-class matching cost. We search that candidate set, testing
feasibility of each threshold with bipartite matchings; by the
Mendelsohn-Dulmage theorem it suffices to check that the points whose
diagonal cost exceeds the threshold can be covered on each side separately,
and the two covers can then be merged into a single witness matching.

No k x k array is built (Efrat-Itai-Katz 2001; Kerber-Morozov-Nigmetov
2017). Each side's points are sorted by death once, so at a threshold c a
point's neighbours lie in its death band [d - c, d + c], which
``searchsorted`` finds for all hard points at once. When every birth gap is
within c (always so for H0) the bands are the adjacency, and as both ends of
a band ascend with the death, one greedy pass in death order is a maximum
matching. Otherwise the bands are filtered by birth gap in row blocks of
bounded size and covered with iterative Hopcroft-Karp, which recurses
nowhere, so no augmenting-path length can hit Python's recursion limit.

The search brackets the value first: no threshold below the largest, over
all points, of the least cost of sending a point to the diagonal or to its
nearest death is feasible, and the death-sorted matching's cost is. It then
bisects the bracket until it holds O(k) pair distances, and binary-searches
those and the diagonal costs inside it. Memory is O(k) plus the adjacency of
one threshold. The witness reuses the covers of the final threshold.
Both diagrams are read by ``core._pair_array``, which rejects invalid pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _blocks, _expand, _pair_array
from .errors import InfiniteDistance, ValidationError

DIAGONAL_CONVENTIONS = ("half", "full")


@dataclass(frozen=True)
class Matching:
    """Witness for a bottleneck value: a bijection up to the diagonal.

    Indices refer to positions in the input pair sequences. ``cost`` is the
    maximum over matched sup-norm distances and diagonal costs.
    """

    matched: tuple  # ((index in X, index in Y), ...)
    to_diagonal_x: tuple
    to_diagonal_y: tuple
    cost: float


def _cover(adj, n_right) -> list | None:
    """Matching that covers every left vertex, or None if there is none.

    ``adj[i]`` lists the right vertices (``0..n_right-1``) available to left
    vertex ``i``; returns each left vertex's right partner. Hopcroft-Karp: a
    greedy start, then phases of a BFS that layers the left vertices by
    alternating distance from the free ones and a DFS on an explicit stack
    that augments along layer-increasing paths, so no path length can hit
    Python's recursion limit.
    """
    match_l = [-1] * len(adj)
    match_r = [-1] * n_right
    for i, nbrs in enumerate(adj):
        for r in nbrs:
            if match_r[r] < 0:
                match_l[i], match_r[r] = r, i
                break
    while True:
        free = [i for i, r in enumerate(match_l) if r < 0]
        if not free:
            return match_l
        layer = [-1] * len(adj)
        for i in free:
            layer[i] = 0
        queue, found = list(free), False
        for i in queue:
            for r in adj[i]:
                j = match_r[r]
                if j < 0:
                    found = True
                elif layer[j] < 0:
                    layer[j] = layer[i] + 1
                    queue.append(j)
        if not found:
            return None
        pos = [0] * len(adj)
        for root in free:
            stack, via = [root], []
            while stack:
                i = stack[-1]
                if pos[i] == len(adj[i]):  # dead end: drop it for this phase
                    layer[i] = -1
                    stack.pop()
                    if via:
                        via.pop()
                    continue
                r = adj[i][pos[i]]
                pos[i] += 1
                j = match_r[r]
                if j < 0:  # augment along the stack
                    via.append(r)
                    for i, r in zip(stack, via):
                        match_l[i], match_r[r] = r, i
                    break
                if layer[j] == layer[i] + 1:
                    stack.append(j)
                    via.append(r)


def bottleneck(x_pairs, y_pairs, diagonal: str = "half"):
    """Bottleneck distance between two same-dimension diagrams.

    Returns ``(value, Matching)``. ``diagonal`` selects the diagonal cost of
    an unmatched pair: "half" is (death - birth) / 2, the sup-norm distance
    to the nearest diagonal point; "full" is death - birth.

    Raises InfiniteDistance when the diagrams have different numbers of
    infinite-death classes (no finite-cost bijection exists).
    """
    if diagonal not in DIAGONAL_CONVENTIONS:
        raise ValidationError(f"unknown diagonal convention {diagonal!r}")
    xs, ys = _pair_array(x_pairs), _pair_array(y_pairs)
    x, y = _Side(xs, diagonal), _Side(ys, diagonal)
    if len(x.ess) != len(y.ess):
        raise InfiniteDistance(
            f"essential-class counts differ: {len(x.ess)} vs {len(y.ess)}")
    # Sorted birth-to-birth matching minimizes the max gap on the line.
    with np.errstate(over="ignore"):  # far-apart births: an inf cost
        ess_cost = float(np.abs(xs[x.ess, 0] - ys[y.ess, 0]).max(initial=0.0))
    value, (cover_x, cover_y) = _search(x, y, ess_cost)
    return value, _build_matching(x, y, cover_x, cover_y, value)


# Pair distances per finite point that the final binary search may collect;
# until the bracket holds no more, it is bisected.
CANDIDATES_PER_POINT = 8


class _Side:
    """A diagram's ``_pair_array``: essential classes' positions by birth
    (``ess``), finite points by death, at ``index``, with diagonal costs.

    ``death_pad`` holds the sorted deaths between -inf and +inf (as
    ``by_birth`` does the sorted births), so a band search never indexes
    past either end.
    """

    def __init__(self, pts, diagonal):
        inf = np.isinf(pts[:, 1])
        self.ess = np.flatnonzero(inf)[np.argsort(pts[inf, 0], kind="stable")]
        fin = np.flatnonzero(~inf)
        self.index = fin[np.argsort(pts[fin, 1], kind="stable")]
        self.birth, self.death = pts[self.index].T
        diag = self.death - self.birth
        # "+ 0.0" turns the -0.0 diagonal cost of a pair (0.0, -0.0) into 0.0.
        self.diag = (diag / 2.0 if diagonal == "half" else diag) + 0.0
        self.death_pad = np.concatenate(([-np.inf], self.death, [np.inf]))

    def __len__(self):
        return len(self.death)

    @cached_property
    def birth_range(self):
        """``(least birth, greatest birth)``; (inf, -inf) when empty."""
        return (float(self.birth.min(initial=np.inf)),
                float(self.birth.max(initial=-np.inf)))

    @cached_property
    def ids(self):
        """The positions 0..k-1 as one object array of Python ints."""
        return np.arange(len(self)).astype(object)

    @cached_property
    def by_birth(self):
        """``(birth_pad, deaths in birth order)``, for the birth rings."""
        order = np.argsort(self.birth, kind="stable")
        return (np.concatenate(([-np.inf], self.birth[order], [np.inf])),
                self.death[order])


def _search(x, y, ess_cost):
    """The least feasible candidate that is at least ``ess_cost``, and the
    covers at it."""
    lo = max(ess_cost, _lower_bound(x, y), _lower_bound(y, x)) + 0.0
    hi, hi_found = _sorted_matching(x, y)
    hi = max(ess_cost, hi) + 0.0
    if hi <= lo:
        return hi, hi_found
    found = _covers(x, y, lo)
    if found is not None:
        return lo, found
    # From here on the value lies in (lo, hi] and hi is feasible.
    budget = CANDIDATES_PER_POINT * (len(x) + len(y))
    while True:
        mid = _between(lo, hi)
        if mid is None:
            cand = [hi]
            break
        rings = _rings(x, y, lo, hi)
        if sum(int((stop - start).sum()) for *_, start, stop in rings) \
                <= budget:
            cand = _candidates(x, y, rings, lo, hi)
            break
        found = _covers(x, y, mid)
        if found is None:
            lo = mid
        else:
            hi, hi_found = mid, found
    # No candidate lies between the largest one and hi, so hi's covers serve
    # it. It is often the value (the death-sorted matching is optimal on most
    # H0 pairs), so the search probes the candidate below it first.
    best, witness = len(cand) - 1, hi_found
    a, b = 0, len(cand) - 2
    mid = b
    while a <= b:
        found = _covers(x, y, cand[mid])
        if found is not None:
            best, witness, b = mid, found, mid - 1
        else:
            a = mid + 1
        mid = (a + b) // 2
    return cand[best], witness


def _lower_bound(x, y):
    """The largest, over X's points, of the least cost at which the point can
    be sent to the diagonal or matched (a match costs at least its death
    gap): no threshold below it is feasible."""
    at = np.searchsorted(y.death_pad, x.death)
    gap = np.minimum(np.abs(x.death - y.death_pad[at - 1]),
                     np.abs(x.death - y.death_pad[at]))
    return float(np.minimum(x.diag, gap).max(initial=0.0))


def _sorted_matching(x, y):
    """Pair the two sides' points in death order from the top; a pair whose
    points cost less on the diagonal goes there, and so do unpaired points.

    Returns the matching's cost, which is a candidate and so a feasible
    threshold, and the matching as X-side and Y-side covers.
    """
    m = min(len(x), len(y))
    xa, ya = slice(len(x) - m, None), slice(len(y) - m, None)
    dist = np.maximum(np.abs(x.birth[xa] - y.birth[ya]),
                      np.abs(x.death[xa] - y.death[ya]))
    diag = np.maximum(x.diag[xa], y.diag[ya])
    cost = np.concatenate((np.minimum(dist, diag), x.diag[:len(x) - m],
                           y.diag[:len(y) - m])).max(initial=0.0)
    paired = np.flatnonzero(dist <= diag)
    cover_x = dict(zip((paired + (len(x) - m)).tolist(),
                       (paired + (len(y) - m)).tolist()))
    return float(cost), [cover_x, {b: a for a, b in cover_x.items()}]


def _between(lo, hi):
    """The float halfway between 0 <= lo < hi in bit order, or None when no
    float lies strictly between them.

    Non-negative floats order as their bit patterns, so bisecting on this
    point ends within 64 steps at any scale; across binades it follows the
    geometric mean, and it never underflows to 0.
    """
    a, b = np.array([lo, hi]).view(np.int64).tolist()
    m = (a + b) // 2
    return None if m == a else float(np.array([m]).view(np.float64)[0])


def _band(q, pad, c):
    """Per value of ``q``, the index range ``[start, stop)`` of the sorted
    keys (held in ``pad`` between -inf and +inf) whose difference from it,
    rounded as the distances round it, is at most ``c`` in absolute value."""
    start = np.searchsorted(pad, q - c)
    stop = np.searchsorted(pad, q + c, "right")
    # Rounding q - c or q + c can move a bound across a key. Check each
    # bound against the rounded differences of its two keys, and bisect on
    # those differences where it moved.
    gap = q - pad[np.concatenate((start - 1, start, stop - 1, stop))
                  ].reshape(4, -1)
    moved = (gap[0] <= c) | (gap[1] > c) | (gap[2] < -c) | (gap[3] >= -c)
    if np.count_nonzero(moved):
        q = q[moved]
        start[moved] = _bisect(lambda j: q - pad[j] <= c, len(pad))
        stop[moved] = _bisect(lambda j: q - pad[j] < -c, len(pad))
    return start - 1, stop - 1


def _bisect(pred, n):
    """Per row, the least index in ``[1, n)`` at which ``pred`` holds, for a
    ``pred`` that is false and then true along the index and true at
    ``n - 1``."""
    a, b = 1, n - 1
    while np.any(a < b):
        mid = (a + b) // 2
        ok = pred(mid)
        a, b = np.where(ok, a, mid + 1), np.where(ok, mid, b)
    return b


def _covers(x, y, c):
    """X-side and Y-side covers, at threshold ``c``, of the points whose
    diagonal cost exceeds ``c``, by pairs at distance <= c; None if either
    fails. Keys are positions in death order."""
    hard_x = np.flatnonzero(x.diag > c)
    hard_y = np.flatnonzero(y.diag > c)
    if len(hard_x) > len(y) or len(hard_y) > len(x):
        return None
    sides = []
    for side, (hard, a, b) in enumerate(((hard_x, x, y), (hard_y, y, x))):
        if len(hard):
            start, stop = _band(a.death[hard], b.death_pad, c)
            if np.count_nonzero(start == stop):  # no neighbour for one
                return None
            sides.append((side, hard, a, b, start, stop))
    (x_min, x_max), (y_min, y_max) = x.birth_range, y.birth_range
    births_near = x_max - y_min <= c and y_max - x_min <= c
    out = [{}, {}]
    for side, hard, a, b, start, stop in sides:
        if births_near:
            cover = _interval_cover(start, stop)
        else:
            adj = _near_births(a.birth[hard], b, start, stop, c)
            cover = None if adj is None else _cover(adj, len(b))
        if cover is None:
            return None
        out[side] = dict(zip(hard.tolist(), cover))
    return out


def _interval_cover(start, stop):
    """Cover of rows whose neighbours are the ranges ``[start, stop)``, both
    ends ascending with the row, or None if there is none.

    Each row in turn takes its first column not taken before, which is the
    column after the previous row's or its own start: for intervals in
    order of their right ends this greedy matching is maximum, so a row left
    without a column means no cover exists.
    """
    rows = np.arange(len(start))
    col = np.maximum.accumulate(start - rows) + rows
    return None if np.count_nonzero(col >= stop) else col.tolist()


def _near_births(births, other, start, stop, c):
    """Per row, the list of indices j in ``[start, stop)`` with
    ``|births[row] - other.birth[j]| <= c``; None if some row has none."""
    adj = []
    for rows in _blocks(stop - start):
        j, size = _expand(start[rows], stop[rows])
        keep = np.abs(np.repeat(births[rows], size) - other.birth[j]) <= c
        counts = np.add.reduceat(keep, np.cumsum(size) - size, dtype=np.intp)
        if np.count_nonzero(counts) < len(counts):
            return None
        # Entries are shared int objects, not one new int per entry.
        flat = other.ids[j[keep]].tolist()
        ends = np.cumsum(counts).tolist()
        adj.extend(flat[a:b] for a, b in zip([0] + ends[:-1], ends))
    return adj


def _rings(x, y, lo, hi):
    """The pairs whose distance may lie in ``(lo, hi]``: per X point, the
    index ranges of the Y points whose death gap (Y in death order) or birth
    gap (Y in birth order) lies in ``(lo, hi]``. Each ring is
    ``(Y births, Y deaths, start, stop)`` in that order of Y."""
    out = []
    birth_pad, death_by_birth = y.by_birth
    for q, pad, births, deaths in (
            (x.death, y.death_pad, y.birth, y.death),
            (x.birth, birth_pad, birth_pad[1:-1], death_by_birth)):
        start_hi, stop_hi = _band(q, pad, hi)
        start_lo, stop_lo = _band(q, pad, lo)
        out.append((births, deaths, start_hi, start_lo))
        out.append((births, deaths, stop_lo, stop_hi))
    return out


def _candidates(x, y, rings, lo, hi):
    """Sorted distinct candidates in ``(lo, hi]``: diagonal costs and the
    distances of the pairs in ``rings``."""
    parts = [d[(d > lo) & (d <= hi)] for d in (x.diag, y.diag)]
    for births, deaths, start, stop in rings:
        for rows in _blocks(stop - start):
            j, size = _expand(start[rows], stop[rows])
            # abs and max are exact, so these are the scalar distances.
            dist = np.maximum(
                np.abs(np.repeat(x.birth[rows], size) - births[j]),
                np.abs(np.repeat(x.death[rows], size) - deaths[j]))
            parts.append(np.unique(dist[(dist > lo) & (dist <= hi)]))
    # "+ 0.0" as for the diagonal costs.
    return (np.unique(np.concatenate(parts)) + 0.0).tolist()


def _build_matching(x, y, cover_x, cover_y, c) -> Matching:
    # Merge the two covers (Mendelsohn-Dulmage): start from the X-side cover
    # and walk alternating chains to pull in each uncovered hard Y vertex
    # without ever exposing a hard X vertex.
    match_xy = dict(cover_x)
    match_yx = {b: a for a, b in match_xy.items()}
    for b in cover_y:
        if b in match_yx:
            continue
        y_cur = b
        while True:
            a = cover_y[y_cur]
            prev = match_xy.get(a)
            match_xy[a] = y_cur
            match_yx[y_cur] = a
            if prev is None:
                break
            del match_yx[prev]
            if prev not in cover_y:
                break
            y_cur = prev

    # Input positions: finite points by ``index``, essential ones by birth.
    x_pos, y_pos = x.index.tolist(), y.index.tolist()
    matched = sorted([(x_pos[a], y_pos[b]) for a, b in match_xy.items()]
                     + list(zip(x.ess.tolist(), y.ess.tolist())))
    used_x, used_y = {i for i, _ in matched}, {j for _, j in matched}
    return Matching(
        matched=tuple(matched), cost=c,
        to_diagonal_x=tuple(sorted(set(range(len(x) + len(x.ess))) - used_x)),
        to_diagonal_y=tuple(sorted(set(range(len(y) + len(y.ess))) - used_y)))
