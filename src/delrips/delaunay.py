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
gives negative orientation. It starts at a simplex incident to the vertex
last inserted in the point's cell of a uniform grid of about n cells, else
at the last simplex created; a walk that cycles falls back to a linear scan.
The walk only seeds the cavity search: the simplices in conflict with a
point form a connected set, so every seed gives the same cavity and the
output does not depend on the walk.

The finished triangulation is certified once (Mehlhorn et al., "Checking
geometric programs or verification of geometric structures", 1999): every
real simplex is positively oriented and every interior facet is locally
Delaunay, which by Delaunay's lemma makes the triangulation Delaunay. Both
signs come from ``certificate``, one numpy filter pass per batch with exact
fallbacks; a cospherical facet (sign 0) sets ``degenerate``, and a failed
check raises ``CertificateError``, also under ``python -O``.

The predicates run on the coordinates scaled by a power of two that brings
the largest one near 1. The scaling is exact, so every sign is unchanged,
and it keeps the float filter away from underflow and overflow at extreme
scales, where it would fall back to exact arithmetic on every call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import PointCloud, closure_of
from .errors import (AffinelyDegenerateInput, CertificateError,
                     DuplicatePoints, TooFewPoints)
from .predicates import (collinear3d, incircle, inball_signs, insphere,
                         orient2d, orient3d, orient_signs)

GHOST = -1
# Tests per numpy filter pass: bounds the filter's temporaries.
_BATCH = 1024


@dataclass(frozen=True)
class DelaunayComplex:
    """Delaunay triangulation plus its face closure.

    ``degenerate`` is set when some cospherical (d+2)-point configuration was
    resolved by the insertion-order tie-break, i.e. the triangulation is not
    unique.
    """

    cloud: PointCloud
    top_simplices: tuple
    all_simplices: frozenset
    degenerate: bool

    def simplices_of_dim(self, dim: int) -> tuple:
        return tuple(sorted(s for s in self.all_simplices if len(s) == dim + 1))


def _grid_cells(pts, dim):
    """Cell id of every point in a uniform grid of about n cells over the
    cloud's bounding box. Halved coordinates keep the differences finite."""
    a = np.asarray(pts, dtype=float) / 2.0
    lo, hi = a.min(axis=0), a.max(axis=0)
    k = max(1, round(len(pts) ** (1.0 / dim)))
    with np.errstate(all="ignore"):
        t = np.nan_to_num((a - lo) / (hi - lo))
    idx = np.clip((t * k).astype(np.int64), 0, k - 1)
    return (idx @ (k ** np.arange(dim))).tolist()


class _Triangulation:
    """Mutable Bowyer-Watson state over simplex slots (see module doc)."""

    def __init__(self, pts, dim, init):
        self.pts = pts
        self.orient = orient2d if dim == 2 else orient3d
        self.inball = incircle if dim == 2 else insphere
        self.verts = []
        self.nbrs = []
        self.free = []
        self.last = None  # last real simplex created
        self.incident = [None] * len(pts)  # vertex -> a real simplex with it
        self.cell = _grid_cells(pts, dim)
        self.cell_vertex = {}  # grid cell -> last vertex inserted there
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
        self._glue(ghosts)
        for v in init:
            self.cell_vertex[self.cell[v]] = v

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

    def _glue(self, slots):
        """Link the still-open facets of the given simplices to each other."""
        verts, nbrs = self.verts, self.nbrs
        open_facets = {}
        for t in slots:
            vs = verts[t]
            for k in range(len(vs)):
                if nbrs[t][k] is None:
                    key = tuple(sorted(vs[:k] + vs[k + 1:]))
                    other = open_facets.pop(key, None)
                    if other is None:
                        open_facets[key] = (t, k)
                    else:
                        nbrs[t][k] = other[0]
                        nbrs[other[0]][other[1]] = t

    def _in_ball(self, s, p):
        """p strictly inside the circumball of real simplex s."""
        return self.inball(*[self.pts[v] for v in self.verts[s]], self.pts[p]) > 0

    def _conflicts(self, s, p) -> bool:
        vs = self.verts[s]
        if GHOST in vs:
            pp = self.pts[p]
            side = self.orient(*[pp if v == GHOST else self.pts[v] for v in vs])
            if side != 0:
                return side > 0
            return self._in_ball(self.nbrs[s][vs.index(GHOST)], p)
        return self._in_ball(s, p)

    def _start(self, p):
        v = self.cell_vertex.get(self.cell[p])
        if v is not None:
            vs = self.verts[self.incident[v]]
            if vs is not None and v in vs and GHOST not in vs:
                return self.incident[v]
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
        for s, vs in enumerate(self.verts):
            if vs is not None and self._conflicts(s, p):
                return s
        raise AssertionError("no conflicting simplex found")  # unreachable

    def insert(self, p):
        verts, nbrs = self.verts, self.nbrs
        seed = self._locate(p)
        if not self._conflicts(seed, p):
            seed = self._locate_scan(p)
        conflict = {seed: True}
        queue = [seed]
        boundary = []
        while queue:
            s = queue.pop()
            for i, nb in enumerate(nbrs[s]):
                hit = conflict.get(nb)
                if hit is None:
                    hit = conflict[nb] = self._conflicts(nb, p)
                    if hit:
                        queue.append(nb)
                if not hit:
                    boundary.append((s, i, nb))
        made = [(verts[s][:i] + [p] + verts[s][i + 1:], i, nb, nbrs[nb].index(s))
                for s, i, nb in boundary]
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
        self._glue(new)
        self.cell_vertex[self.cell[p]] = p


def interior_facets(simplices) -> np.ndarray:
    """(i, q) rows, one for every facet shared by two of the simplices: i
    indexes the first of them and q is the second's vertex opposite the
    facet. Each simplex's vertex order may be any."""
    verts = np.sort(np.asarray(simplices, dtype=np.int64), axis=1)
    t, k = verts.shape
    faces = np.stack([np.delete(verts, j, axis=1) for j in range(k)], axis=1)
    faces = faces.reshape(t * k, k - 1)
    order = np.lexsort(faces.T[::-1])
    faces = faces[order]
    shared = np.flatnonzero((faces[1:] == faces[:-1]).all(axis=1))
    owner = order[shared] // k
    opposite = verts.reshape(-1)[order[shared + 1]]
    return np.stack([owner, opposite], axis=1)


def certificate(points, simplices, facets) -> tuple:
    """Orientation signs of the simplices and in-ball signs of the facets.

    ``simplices`` are vertex-id sequences into ``points`` and ``facets``
    (i, q) pairs as from ``interior_facets``. Returns two int arrays: the
    exact orientation sign of every simplex in the order given, and for every
    pair the exact in-ball sign of point q against simplex i times that
    simplex's orientation sign, which is positive iff q lies strictly inside
    the circumball (the facet is not locally Delaunay) and 0 when q is on it
    or the simplex is flat. Runs the float filter in batches of ``_BATCH``
    tests, with the exact predicates where it cannot certify.
    """
    coords = np.asarray(points, dtype=float)
    verts = np.asarray(simplices, dtype=np.int64)
    orient = np.zeros(len(verts), dtype=np.int64)
    for k in range(0, len(verts), _BATCH):
        orient[k:k + _BATCH] = orient_signs(coords[verts[k:k + _BATCH]])
    pairs = np.asarray(facets, dtype=np.int64).reshape(-1, 2)
    inball = np.zeros(len(pairs), dtype=np.int64)
    for k in range(0, len(pairs), _BATCH):
        i, q = pairs[k:k + _BATCH].T
        inball[k:k + _BATCH] = inball_signs(coords[verts[i]], coords[q]) * orient[i]
    return orient, inball


def _certify(points, simplices) -> bool:
    """Check a finished triangulation: every simplex positively oriented and
    no interior facet strictly non-locally-Delaunay. Returns whether some
    interior facet is cospherical (the tie-break decided it); raises
    CertificateError otherwise."""
    simplices = np.asarray(simplices, dtype=np.int64)
    orient, inball = certificate(points, simplices, interior_facets(simplices))
    if (orient <= 0).any():
        raise CertificateError(
            f"{int((orient <= 0).sum())} simplices are not positively oriented")
    if (inball > 0).any():
        raise CertificateError(
            f"{int((inball > 0).sum())} interior facets are not locally Delaunay")
    return bool((inball == 0).any())


def _prescaled(points):
    """The points times 2**-e, with e the binary exponent of the largest
    |coordinate|. Returned unscaled when that would make some nonzero
    coordinate subnormal: only an exact scaling keeps every sign."""
    a = np.asarray(points, dtype=float)
    mags = np.abs(a[a != 0.0])
    e = math.frexp(float(mags.max()))[1]
    if e == 0 or math.ldexp(float(mags.min()), -e) < sys.float_info.min:
        return points
    return tuple(map(tuple, np.ldexp(a, -e).tolist()))


def _initial_vertices(pts, dim):
    """First dim+1 affinely independent points in index order."""
    chosen = [0]
    for i in range(1, len(pts)):
        if pts[i] != pts[0]:
            chosen.append(i)
            break
    if len(chosen) < 2:
        raise AffinelyDegenerateInput("all points coincide")
    for i in range(chosen[1] + 1, len(pts)):
        a, b, c = pts[chosen[0]], pts[chosen[1]], pts[i]
        flat = orient2d(a, b, c) == 0 if dim == 2 else collinear3d(a, b, c)
        if not flat:
            chosen.append(i)
            break
    if len(chosen) < 3:
        raise AffinelyDegenerateInput("all points are collinear")
    if dim == 3:
        for i in range(chosen[2] + 1, len(pts)):
            coords = [pts[v] for v in chosen] + [pts[i]]
            if orient3d(*coords) != 0:
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
    pts = cloud.points
    n = len(pts)
    if n < dim + 1:
        raise TooFewPoints(f"need at least {dim + 1} points in R^{dim}, got {n}")
    seen = {}
    for i, p in enumerate(pts):
        if p in seen:
            raise DuplicatePoints(f"points {seen[p]} and {i} coincide")
        seen[p] = i

    pts = _prescaled(pts)
    init = _initial_vertices(pts, dim)
    tri = _Triangulation(pts, dim, init)
    used = set(init)
    for p in range(n):
        if p not in used:
            tri.insert(p)

    real = [vs for vs in tri.verts if vs is not None and GHOST not in vs]
    degenerate = _certify(pts, real)
    tops = tuple(sorted(tuple(sorted(vs)) for vs in real))
    return DelaunayComplex(
        cloud=cloud,
        top_simplices=tops,
        all_simplices=frozenset(closure_of(tops)),
        degenerate=degenerate,
    )
