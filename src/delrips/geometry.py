"""Geometric operations on point clouds: Hausdorff and minimum distances,
random perturbations, and triangulation-equality checks.

Distances come from ``core.distances`` (finite and nonzero near 1e-200 or
1e160). Hausdorff takes them in the row blocks of ``core.distance_blocks``;
the minimum distance and the pairing check take them only for the pairs of
a ``core._sweep_pairs`` sweep, which leaves out no pair that could change
the result. The minima, maxima and counts combine exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PointCloud, _sweep_pairs, distance_blocks, distances
from .delaunay import certificate, delaunay, interior_facets
from .errors import (DimensionMismatch, EmptyCloud, EpsilonTooLarge,
                     ValidationError)


def hausdorff_distance(p: PointCloud, q: PointCloud) -> float:
    """Symmetric Hausdorff distance between two finite clouds."""
    if len(p) == 0 or len(q) == 0:
        raise EmptyCloud("hausdorff_distance requires non-empty clouds")
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimensions differ: {p.dim} vs {q.dim}")
    p_to_q = 0.0
    q_to_p = np.full(len(q), np.inf)
    for _, d in distance_blocks(p.points, q.points):
        p_to_q = max(p_to_q, float(d.min(axis=1).max()))
        np.minimum(q_to_p, d.min(axis=0), out=q_to_p)
    return max(p_to_q, float(q_to_p.max()))


def min_pairwise_distance(cloud: PointCloud) -> float:
    """Smallest distance between two distinct points; inf for n < 2."""
    pts = cloud.points
    if len(pts) < 2:
        return math.inf
    # Points next to each other in the order along any axis give an upper
    # bound; only pairs the sweep keeps at that bound can be closer.
    best = min(float(distances(pts[o[:-1]], pts[o[1:]]).min())
               for o in np.argsort(pts, axis=0, kind="stable").T)
    for i, j in _sweep_pairs(pts, pts, best):
        ahead = i < j  # each unordered pair once, never the point itself
        if ahead.any():
            best = min(best, float(distances(pts[i[ahead]], pts[j[ahead]]).min()))
    return best


@dataclass(frozen=True)
class PerturbationPairing:
    """A cloud and its perturbed copy, paired index-by-index.

    Each target point lies strictly within ``epsilon`` of its source and is
    the unique such point in either direction (validated on construction).
    """

    source: PointCloud
    target: PointCloud
    epsilon: float

    def __post_init__(self):
        if len(self.source) != len(self.target):
            raise ValidationError("source and target sizes differ")
        if self.source.dim != self.target.dim:
            raise DimensionMismatch("source and target dimensions differ")
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be positive")
        a, b = self.source.points, self.target.points
        moved = distances(a, b)
        far = np.flatnonzero(~(moved < self.epsilon))
        if len(far):
            i = int(far[0])
            raise ValidationError(
                f"pair {i} displaced by {float(moved[i])} >= epsilon {self.epsilon}")
        # Every pair is within epsilon, so the pairing is mutually unique
        # iff no other source-target pair is.
        within = sum(int((distances(a[i], b[j]) < self.epsilon).sum())
                     for i, j in _sweep_pairs(a, b, self.epsilon))
        if within > len(a):
            raise ValidationError("pairing is not mutually unique")


def _ball_offsets(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n vectors uniform in the open ball of the given radius."""
    dirs = rng.standard_normal((n, dim))
    norms = np.linalg.norm(dirs, axis=1)
    while np.any(norms == 0.0):  # measure zero, but keep it total
        bad = norms == 0.0
        dirs[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(dirs, axis=1)
    radii = radius * rng.random(n) ** (1.0 / dim)
    return dirs * (radii / norms)[:, None]


def epsilon_perturb(cloud: PointCloud, eps: float, seed: int) -> PerturbationPairing:
    """Displace every point by a uniform random vector of magnitude < eps.

    Requires eps below half the minimum pairwise distance, which guarantees
    the perturbation pairing is mutually unique. Deterministic per seed.
    """
    if not eps > 0:
        raise ValidationError("eps must be positive")
    half_min = min_pairwise_distance(cloud) / 2.0
    if eps >= half_min:
        raise EpsilonTooLarge(
            f"eps {eps} >= half the minimum pairwise distance {half_min}")
    rng = np.random.default_rng(seed)
    offsets = _ball_offsets(rng, len(cloud), cloud.dim, eps)
    target = PointCloud.from_points(cloud.points + offsets)
    return PerturbationPairing(source=cloud, target=target, epsilon=eps)


def same_triangulation(pair: PerturbationPairing) -> bool:
    """True iff source and target have identical Delaunay simplex sets under
    the index pairing.

    Only the source is triangulated up front. Its top simplices are then
    checked against the target coordinates with ``delaunay.certificate``,
    and the answer is False without triangulating the target when either
    check gives strict evidence:

    - The orientation signs flip: some tops keep their source orientation
      sign in the target and others reverse it. Adjacent simplices of any
      triangulation lie on opposite sides of their shared facet, which fixes
      the ratio of their orientation signs by the combinatorics alone, and
      the tops' dual graph is connected; so if the source triangulation
      triangulated the target too, every top would keep its sign or every
      top would reverse it.
    - An interior facet is strictly non-locally-Delaunay in the target: a
      point lies strictly inside the circumball of a top, so that top is not
      a simplex of the target's Delaunay triangulation, whose circumballs
      are all empty.

    A zero sign proves nothing here (a target flat everywhere must still
    raise AffinelyDegenerateInput from ``delaunay``), so it and every other
    case fall back to comparing the top simplices with ``delaunay(target)``'s;
    a full-dimensional triangulation's d-simplices fix all its faces. Both
    shortcuts only return False where that comparison does, so the answer,
    errors included, is exactly the two-triangulation comparison.
    """
    src = delaunay(pair.source)
    tops = src.faces(pair.source.dim)
    facets = interior_facets(src._cofaces(pair.source.dim - 1))
    before, _ = certificate(pair.source.points, tops, ())
    after, inball = certificate(pair.target.points, tops, facets)
    flips = before * after
    if ((flips > 0).any() and (flips < 0).any()) or (inball > 0).any():
        return False
    return np.array_equal(tops, delaunay(pair.target).faces(pair.source.dim))
