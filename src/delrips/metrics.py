"""Exact bottleneck distance between persistence diagrams.

The optimal value is one of finitely many candidates: the pairwise sup-norm
distances between points of the two diagrams, the per-point diagonal costs,
and the essential-class matching cost. We binary-search that candidate set,
testing feasibility of each threshold with bipartite matchings; by the
Mendelsohn-Dulmage theorem it suffices to check that the points whose
diagonal cost exceeds the threshold can be covered on each side separately,
and the two covers can then be merged into a single witness matching.

With k finite points per diagram, the k x k sup-norm distance matrix is
built once with numpy (O(k^2) memory: 8 MB at k = 1000) and its distinct
entries are the candidates. Each threshold tested builds adjacency lists
from that matrix and covers the hard points with iterative Hopcroft-Karp,
which recurses nowhere, so no augmenting-path length can hit Python's
recursion limit. The witness reuses the covers of the final threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import diagram_pair
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
    xs = [diagram_pair(b, d) for b, d in x_pairs]
    ys = [diagram_pair(b, d) for b, d in y_pairs]

    x_ess = sorted((i for i, p in enumerate(xs) if math.isinf(p[1])),
                   key=lambda i: xs[i][0])
    y_ess = sorted((i for i, p in enumerate(ys) if math.isinf(p[1])),
                   key=lambda i: ys[i][0])
    if len(x_ess) != len(y_ess):
        raise InfiniteDistance(
            f"essential-class counts differ: {len(x_ess)} vs {len(y_ess)}")
    # Sorted birth-to-birth matching minimizes the max gap on the line.
    ess_matched = tuple(zip(x_ess, y_ess))
    ess_cost = max((abs(xs[i][0] - ys[j][0]) for i, j in ess_matched),
                   default=0.0)

    x_fin = [i for i, p in enumerate(xs) if not math.isinf(p[1])]
    y_fin = [i for i, p in enumerate(ys) if not math.isinf(p[1])]
    fx = np.array([xs[i] for i in x_fin], dtype=float).reshape(-1, 2)
    fy = np.array([ys[j] for j in y_fin], dtype=float).reshape(-1, 2)
    # Sup-norm distances; abs and max are exact, so these are the scalar
    # values bit for bit.
    dist = np.maximum(np.abs(fx[:, None, 0] - fy[None, :, 0]),
                      np.abs(fx[:, None, 1] - fy[None, :, 1]))
    dist_t = np.ascontiguousarray(dist.T)
    diag_x = fx[:, 1] - fx[:, 0]
    diag_y = fy[:, 1] - fy[:, 0]
    if diagonal == "half":
        diag_x, diag_y = diag_x / 2.0, diag_y / 2.0

    # "+ 0.0" turns the -0.0 diagonal cost of a pair (0.0, -0.0) into 0.0.
    cand = (np.unique(np.concatenate((dist.ravel(), diag_x, diag_y,
                                      (0.0, ess_cost)))) + 0.0).tolist()

    def covers(c):
        """X-side and Y-side covers of the points whose diagonal cost
        exceeds ``c``, by pairs at distance <= c, or None if either fails."""
        out = []
        for diag, rows, n_right in ((diag_x, dist, len(y_fin)),
                                    (diag_y, dist_t, len(x_fin))):
            hard = np.flatnonzero(diag > c).tolist()
            cover = _cover([np.flatnonzero(rows[h] <= c).tolist()
                            for h in hard], n_right)
            if cover is None:
                return None
            out.append(dict(zip(hard, cover)))
        return out

    lo, hi = 0, len(cand) - 1
    while cand[lo] < ess_cost:
        lo += 1
    best, witness = hi, None
    a, b = lo, hi
    while a <= b:
        mid = (a + b) // 2
        found = covers(cand[mid])
        if found is not None:
            best, witness = mid, found
            b = mid - 1
        else:
            a = mid + 1
    value = cand[best]
    matching = _build_matching(len(xs), len(ys), x_fin, y_fin, ess_matched,
                               *witness, value)
    return value, matching


def _build_matching(nx, ny, x_fin, y_fin, ess_matched, cover_x, cover_y,
                    c) -> Matching:
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

    matched = [(x_fin[a], y_fin[b]) for a, b in sorted(match_xy.items())]
    matched.extend(ess_matched)
    used_x = {i for i, _ in matched}
    used_y = {j for _, j in matched}
    to_diag_x = tuple(i for i in range(nx) if i not in used_x)
    to_diag_y = tuple(j for j in range(ny) if j not in used_y)
    return Matching(matched=tuple(sorted(matched)),
                    to_diagonal_x=to_diag_x,
                    to_diagonal_y=to_diag_y,
                    cost=c)
