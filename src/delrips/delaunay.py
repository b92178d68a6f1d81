"""Delaunay triangulation in R^2 and R^3 by incremental Bowyer-Watson.

Conflict tests use the sign-exact predicates, so the output is a valid
Delaunay triangulation for any input, including grids and cospherical
configurations. Points exactly on a circumsphere are treated as outside it
(no conflict); with points inserted in index order this resolves every
cospherical tie deterministically in favor of the earliest-built simplices.

The hull exterior is covered by ghost simplices, one per hull facet, sharing
a synthetic vertex ``GHOST``. A point conflicts with a ghost when it lies
strictly beyond the facet's hyperplane, or on it and in conflict with the
facet's real neighbor; this keeps the cavity star-shaped and never produces
flat simplices.

Simplices live in reusable slots (memory O(live simplices)): ``verts[s]``
holds d+1 vertex ids and ``nbrs[s][i]`` the slot across the facet opposite
``verts[s][i]``. A real simplex is stored positively oriented; a ghost keeps
``GHOST`` where a point strictly beyond its hull facet would give positive
orientation. All simplices are thus oriented consistently, so replacing a
cavity simplex's vertex by the new point keeps the orientation, and each new
real simplex comes out positive.

A walk locates the point, crossing face i whenever the point in position i
gives negative orientation (jump-and-walk: Muecke, Saias and Zhu, "Fast
randomized point location without preprocessing", 1999; Devillers, Pion
and Teillaud, "Walking in a triangulation", 2002). It starts at a simplex
incident to the vertex last inserted in the point's finest non-empty cell
of nested uniform grids: about n cells, then half as many per axis at each
level, down to one cell. A walk that cycles falls back to a linear scan.
The walk only seeds the cavity search: the simplices in conflict with a
point form a connected set, so every seed gives the same cavity and the
output does not depend on the walk.

The new simplices of an insertion all contain the new point, so when they
are glued to each other each open facet is keyed on its other d-1 vertices
a <= b (a == b in 2-D) as the one int a*n + b.

``delaunay`` sorts the real simplices into a lexicographic int64 array. The
one face routine, ``facet_incidence``, maps each dimension's simplices to
their facets once, top-down on demand; ``DelaunayComplex`` keeps the map for
the certificate, the faces, both scale rules and ``same_triangulation``.
Both sort by ``core._row_order``, the package's one row order.

The finished triangulation is certified once (Mehlhorn et al., "Checking
geometric programs or verification of geometric structures", 1999): every
real simplex is positively oriented and every interior facet is locally
Delaunay, which by Delaunay's lemma makes the triangulation Delaunay. Both
signs come from ``certificate``, which runs the batch kernels of
``predicates``: one numpy filter pass per chunk of tests, with exact
fallbacks. A cospherical facet (sign 0) sets ``degenerate``, and a failed
check raises ``CertificateError``, also under ``python -O``.

The insertion loop and the certificate's kernels run on the coordinates
scaled by a power of two that brings the largest one near 1
(``predicates.scale_exponent``): exact, so every sign is unchanged, and
clear of the underflow and overflow that would send the float filter to
exact arithmetic at extreme scales. The loop's tests come from
``predicates._cloud_predicates``, whose per-cloud static bound decides
every test of the 2000-point noisy sphere. All the in-ball tests of an
insertion (about 35, on about 23 vertices) are against its new point p, so
it takes one ``inball_from(p)``, which lifts each vertex by p once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import PointCloud, _facet_rows, _row_order
from .errors import (AffinelyDegenerateInput, CertificateError,
                     DuplicatePoints, TooFewPoints)
from .predicates import (_cloud_predicates, collinear3d, inball_signs,
                         orient_signs, scale_exponent)

GHOST = -1


@dataclass(frozen=True)
class DelaunayComplex:
    """Delaunay triangulation: its top simplices and, on demand, its faces.

    ``faces(k)`` gives the k-faces as a sorted int array: the d-simplices
    as the triangulation made them, lower faces as the facets of the
    (k+1)-faces, derived on first use and kept. ``top_simplices``, the
    d-simplices as a tuple of vertex tuples, is built on first read.

    ``degenerate`` is set when some cospherical (d+2)-point configuration was
    resolved by the insertion-order tie-break, i.e. the triangulation is not
    unique.
    """

    cloud: PointCloud
    degenerate: bool
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def faces(self, dim: int) -> np.ndarray:
        """The dim-simplices as a lexicographically sorted (m, dim+1) int64
        array, one simplex per row (m = 0 outside 0 <= dim <= d)."""
        return self._cofaces(dim)[0]

    def _cofaces(self, dim: int) -> tuple:
        """``facet_incidence(self.faces(dim + 1))`` for 0 < dim < d, derived
        once and kept; at dim 0 (the edges' incidence has no other reader),
        at d (kept by ``delaunay``) and outside, a 1-tuple of the faces."""
        cache = self._cache
        if dim not in cache:
            if 0 <= dim < self.cloud.dim:
                got = facet_incidence(self.faces(dim + 1))
                cache[dim] = got if dim else got[:1]
            else:
                cache[dim] = (np.empty((0, max(dim + 1, 0)), np.int64),)
        return cache[dim]

    @cached_property
    def top_simplices(self) -> tuple:
        """The d-simplices as sorted vertex tuples, in sorted order."""
        return tuple(map(tuple, self.faces(self.cloud.dim).tolist()))


def facet_incidence(rows) -> tuple:
    """``(facets, facet_row, owner, opposite)`` of simplices given as the
    rows, in any order, of an (m, k+1) int array with ascending vertices:
    the distinct facets as a sorted (f, k) array and, for each of the
    m(k+1) incidences in facet order (ties by owner), the facet's row, the
    owning simplex's row and its vertex opposite the facet. One
    ``_facet_rows`` gather and one ``_row_order``."""
    rows = np.asarray(rows, dtype=np.int64)
    faces = _facet_rows(rows)  # incidence r*(k+1) + i drops rows[r, i]
    order, new = _row_order(faces)
    return (faces[order[new]], np.cumsum(new) - 1, order // rows.shape[1],
            rows.reshape(-1)[order])


def _grid_cells(points):
    """Each point's cells in nested uniform grids over the bounding box of
    an (n, d) float array, finest first: about n cells, then half as many
    per axis at each coarser level, down to one cell. Returns the per-point
    lists of cell ids, distinct across levels, and the number of cells.
    Halved coordinates keep the differences finite."""
    n, dim = points.shape
    a = points / 2.0
    lo, hi = a.min(axis=0), a.max(axis=0)
    k = max(1, round(n ** (1.0 / dim)))
    with np.errstate(all="ignore"):
        t = np.nan_to_num((a - lo) / (hi - lo))
    idx = np.clip((t * k).astype(np.int64), 0, k - 1)
    levels, total = [], 0
    while True:
        levels.append(total + idx @ (k ** np.arange(dim)))
        total += k ** dim
        if k == 1:
            return np.stack(levels, axis=1).tolist(), total
        idx, k = idx // 2, (k + 1) // 2


def _ridge_positions(dim):
    """Row i: (k, x, y) for every facet k != i of a simplex whose new point
    sits at position i, where x and y are the positions of the facet's other
    vertices (x == y in 2-D)."""
    out = []
    for i in range(dim + 1):
        row = []
        for k in range(dim + 1):
            if k != i:
                rest = [j for j in range(dim + 1) if j not in (i, k)]
                row.append((k, rest[0], rest[-1]))
        out.append(row)
    return out


class _Triangulation:
    """Mutable Bowyer-Watson state over simplex slots (see module doc)."""

    def __init__(self, scaled, pts, init, predicates):
        dim = scaled.shape[1]
        self.pts = pts
        self.orient, self.inball_from = predicates
        self.ridges = _ridge_positions(dim)
        self.verts = []
        self.nbrs = []
        self.free = []
        self.last = None  # last real simplex created
        self.incident = [None] * len(pts)  # vertex -> a real simplex with it
        self.cells, ncells = _grid_cells(scaled)
        self.cell_vertex = [None] * ncells  # cell -> last vertex inserted there
        first = list(init)
        if self.orient(*[pts[v] for v in first]) < 0:
            first[0], first[1] = first[1], first[0]
        real = self._new(first)
        ghosts = []
        for i in range(dim + 1):
            g = list(first)
            g[i] = GHOST
            a, b = [k for k in range(dim + 1) if k != i][:2]
            g[a], g[b] = g[b], g[a]
            ghosts.append(self._new(g))
            self.nbrs[real][i] = ghosts[-1]
            self.nbrs[ghosts[-1]][i] = real
        self._glue(ghosts, GHOST)
        for v in init:
            self._mark(v)

    def _new(self, vs):
        real = GHOST not in vs
        if self.free:
            s = self.free.pop()
            self.verts[s] = vs
            self.nbrs[s] = [None] * len(vs)
        else:
            s = len(self.verts)
            self.verts.append(vs)
            self.nbrs.append([None] * len(vs))
        if real:
            self.last = s
            for v in vs:
                self.incident[v] = s
        return s

    def _mark(self, v):
        """Record v as the last vertex inserted in each of its grid cells."""
        for c in self.cells[v]:
            self.cell_vertex[c] = v

    def _glue(self, slots, p):
        """Link the open facets of the given simplices to each other. Every
        simplex holds the shared vertex p with its facet opposite p already
        linked, so each open facet contains p and is keyed on its other
        vertices a <= b: a*n + b (GHOST = -1 gives negative keys)."""
        verts, nbrs, ridges, n = self.verts, self.nbrs, self.ridges, len(self.pts)
        open_facets = {}
        for t in slots:
            vs = verts[t]
            for k, x, y in ridges[vs.index(p)]:
                a, b = vs[x], vs[y]
                key = a * n + b if a <= b else b * n + a
                other = open_facets.pop(key, None)
                if other is None:
                    open_facets[key] = (t, k)
                else:
                    u, j = other
                    nbrs[t][k] = u
                    nbrs[u][j] = t

    def _conflicts(self, s, p, inball) -> bool:
        """Whether p conflicts with simplex s; ``inball`` is
        ``inball_from(p)``."""
        pts, vs = self.pts, self.verts[s]
        if GHOST in vs:
            side = self.orient(*[pts[p] if v == GHOST else pts[v] for v in vs])
            if side != 0:
                return side > 0
            vs = self.verts[self.nbrs[s][vs.index(GHOST)]]
        return inball(vs) > 0

    def _start(self, p):
        """A real simplex incident to the vertex last inserted in p's finest
        non-empty grid cell, else the last real simplex created."""
        for c in self.cells[p]:
            v = self.cell_vertex[c]
            if v is not None:
                s = self.incident[v]
                vs = self.verts[s]
                if vs is not None and v in vs and GHOST not in vs:
                    return s
                break
        return self.last

    def _locate(self, p):
        """Walk to one simplex in conflict with p."""
        verts, nbrs, pts, orient = self.verts, self.nbrs, self.pts, self.orient
        pp = pts[p]
        cur, prev = self._start(p), None
        for _ in range(4 * len(verts) + 32):
            coords = [pts[v] for v in verts[cur]]
            nxt = None
            for i, nb in enumerate(nbrs[cur]):
                if nb == prev:
                    continue  # p is strictly on cur's side of the entry face
                q, coords[i] = coords[i], pp
                if orient(*coords) < 0:
                    nxt = nb
                    break
                coords[i] = q
            if nxt is None:
                return cur  # p inside the closed simplex
            if GHOST in verts[nxt]:
                return nxt  # p beyond a hull facet
            prev, cur = cur, nxt
        return self._locate_scan(p)  # walk cycled on a degenerate input

    def _locate_scan(self, p):
        inball = self.inball_from(p)
        for s, vs in enumerate(self.verts):
            if vs is not None and self._conflicts(s, p, inball):
                return s
        raise AssertionError("no conflicting simplex found")  # unreachable

    def insert(self, p):
        verts, nbrs = self.verts, self.nbrs
        inball = self.inball_from(p)
        seed = self._locate(p)
        if not self._conflicts(seed, p, inball):
            seed = self._locate_scan(p)
        conflict = {seed: True}
        queue = [seed]
        boundary = []
        while queue:
            s = queue.pop()
            for i, nb in enumerate(nbrs[s]):
                hit = conflict.get(nb)
                if hit is None:
                    vs = verts[nb]
                    if GHOST in vs:
                        hit = self._conflicts(nb, p, inball)
                    else:
                        hit = inball(vs) > 0
                    conflict[nb] = hit
                    if hit:
                        queue.append(nb)
                if not hit:
                    boundary.append((s, i, nb))
        made = []
        for s, i, nb in boundary:
            vs = verts[s].copy()
            vs[i] = p
            made.append((vs, i, nb, nbrs[nb].index(s)))
        for s, hit in conflict.items():
            if hit:
                verts[s] = nbrs[s] = None
                self.free.append(s)
        new = []
        for vs, i, nb, j in made:
            t = self._new(vs)
            nbrs[t][i] = nb
            nbrs[nb][j] = t
            new.append(t)
        self._glue(new, p)
        self._mark(p)


def interior_facets(incidence) -> np.ndarray:
    """(i, q) rows, one for every facet shared by two simplices, read from
    their ``facet_incidence``: i is the row of the first of them and q the
    second's vertex opposite the facet."""
    _, facet_row, owner, opposite = incidence
    shared = np.flatnonzero(facet_row[1:] == facet_row[:-1])
    return np.stack([owner[shared], opposite[shared + 1]], axis=1)


def certificate(points, simplices, facets) -> tuple:
    """Orientation signs of the simplices and in-ball signs of the facets.

    ``simplices`` are vertex-id sequences into ``points`` and ``facets``
    (i, q) pairs as from ``interior_facets``. Returns two int arrays: the
    exact orientation sign of every simplex in the order given, and for every
    pair the exact in-ball sign of point q against simplex i times that
    simplex's orientation sign, which is positive iff q lies strictly inside
    the circumball (the facet is not locally Delaunay) and 0 when q is on it
    or the simplex is flat, from the batch kernels of ``predicates``."""
    orient = orient_signs(points, simplices)
    i, q = np.asarray(facets, dtype=np.int64).reshape(-1, 2).T
    inball = inball_signs(points, simplices, (i, q))
    inball *= orient[i]
    return orient, inball


def _certify(points, simplices) -> tuple:
    """Check a finished triangulation: every simplex positively oriented as
    given and no interior facet strictly non-locally-Delaunay. Returns the
    sorted top array, its ``facet_incidence`` and whether an interior facet
    is cospherical (the tie-break decided it); else raises CertificateError."""
    verts = np.asarray(simplices, dtype=np.int64)
    tops = np.sort(verts, axis=1)
    order = _row_order(tops)[0]
    tops = tops[order]
    incidence = facet_incidence(tops)
    orient, inball = certificate(points, verts[order], interior_facets(incidence))
    if (orient <= 0).any():
        raise CertificateError(
            f"{int((orient <= 0).sum())} simplices are not positively oriented")
    if (inball > 0).any():
        raise CertificateError(
            f"{int((inball > 0).sum())} interior facets are not locally Delaunay")
    return tops, incidence, bool((inball == 0).any())


def _prescaled(points) -> tuple:
    """The insertion loop's points times 2**-``scale_exponent(points)``,
    exact, as an array and as tuples of floats."""
    scaled = np.ldexp(points, -scale_exponent(points))
    return scaled, tuple(map(tuple, scaled.tolist()))


def _initial_vertices(pts, dim, orient):
    """First dim+1 affinely independent points in index order; ``orient`` is
    the cloud's orient2d or orient3d."""
    chosen = [0]
    for i in range(1, len(pts)):
        if pts[i] != pts[0]:
            chosen.append(i)
            break
    if len(chosen) < 2:
        raise AffinelyDegenerateInput("all points coincide")
    for i in range(chosen[1] + 1, len(pts)):
        a, b, c = pts[chosen[0]], pts[chosen[1]], pts[i]
        flat = orient(a, b, c) == 0 if dim == 2 else collinear3d(a, b, c)
        if not flat:
            chosen.append(i)
            break
    if len(chosen) < 3:
        raise AffinelyDegenerateInput("all points are collinear")
    if dim == 3:
        for i in range(chosen[2] + 1, len(pts)):
            coords = [pts[v] for v in chosen] + [pts[i]]
            if orient(*coords) != 0:
                chosen.append(i)
                break
        if len(chosen) < 4:
            raise AffinelyDegenerateInput("all points are coplanar")
    return chosen


def delaunay(cloud: PointCloud) -> DelaunayComplex:
    """Delaunay triangulation of the cloud.

    Deterministic for a fixed input: exact predicates with insertion in index
    order, so cospherical ties always resolve the same way (and set the
    ``degenerate`` flag).

    Raises TooFewPoints for n < dim+1, DuplicatePoints for coincident points,
    and AffinelyDegenerateInput when all points share a hyperplane. A result
    that fails its certificate raises CertificateError, which would be a bug.
    """
    dim = cloud.dim
    n = len(cloud)
    if n < dim + 1:
        raise TooFewPoints(f"need at least {dim + 1} points in R^{dim}, got {n}")
    scaled, pts = _prescaled(cloud.points)
    seen = {}
    for i, p in enumerate(pts):
        if p in seen:
            raise DuplicatePoints(f"points {seen[p]} and {i} coincide")
        seen[p] = i

    predicates = _cloud_predicates(pts)
    init = _initial_vertices(pts, dim, predicates[0])
    tri = _Triangulation(scaled, pts, init, predicates)
    used = set(init)
    for p in range(n):
        if p not in used:
            tri.insert(p)

    real = [vs for vs in tri.verts if vs is not None and GHOST not in vs]
    del tri  # free the slots before the certificate builds its incidence
    tops, incidence, degenerate = _certify(cloud.points, real)
    dc = DelaunayComplex(cloud, degenerate)
    dc._cache.update({dim: (tops,), dim - 1: incidence})
    return dc
