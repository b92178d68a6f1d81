"""Geometric operations on point clouds: circumspheres, Hausdorff distance,
random perturbations, and triangulation-equality checks.

Distances come from ``core.distances`` (finite and nonzero near 1e-200 or
1e160) in the row blocks of ``core.distance_blocks``; the minima, maxima
and counts taken from the blocks combine exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PointCloud, distance_blocks, distances
from .delaunay import certificate, delaunay, interior_facets
from .errors import (DegenerateSimplex, DimensionMismatch, EmptyCloud,
                     EpsilonTooLarge, ValidationError)


def circumsphere(points) -> tuple:
    """Center and radius of the unique sphere through k+1 affinely
    independent points, within their affine hull.

    Solves the perpendicular-bisector system 2 V V^T y = (|v_i|^2) with
    V the edge matrix from the first point; raises DegenerateSimplex when the
    points are (numerically) affinely dependent.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValidationError("expected a sequence of points")
    k = pts.shape[0] - 1
    if k < 0:
        raise ValidationError("need at least one point")
    p0 = pts[0]
    if k == 0:
        return tuple(p0), 0.0
    if k > pts.shape[1]:
        raise DegenerateSimplex(
            f"{k + 1} points cannot be affinely independent in R^{pts.shape[1]}")
    v = pts[1:] - p0
    gram = 2.0 * (v @ v.T)
    rhs = np.einsum("ij,ij->i", v, v)
    try:
        y = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateSimplex("affinely dependent points") from None
    center = p0 + y @ v
    radius = float(np.linalg.norm(center - p0))
    # Solve quality check; catches near-singular systems that did not raise.
    dists = np.linalg.norm(pts - center, axis=1)
    scale = radius + float(np.max(np.linalg.norm(v, axis=1)))
    if np.max(np.abs(dists - radius)) > 1e-7 * max(scale, 1e-30):
        raise DegenerateSimplex("affinely dependent points (ill-conditioned)")
    return tuple(float(x) for x in center), radius


def hausdorff_distance(p: PointCloud, q: PointCloud) -> float:
    """Symmetric Hausdorff distance between two finite clouds."""
    if len(p) == 0 or len(q) == 0:
        raise EmptyCloud("hausdorff_distance requires non-empty clouds")
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimensions differ: {p.dim} vs {q.dim}")
    p_to_q = 0.0
    q_to_p = np.full(len(q), np.inf)
    for _, d in distance_blocks(p.as_array(), q.as_array()):
        p_to_q = max(p_to_q, float(d.min(axis=1).max()))
        np.minimum(q_to_p, d.min(axis=0), out=q_to_p)
    return max(p_to_q, float(q_to_p.max()))


def min_pairwise_distance(cloud: PointCloud) -> float:
    """Smallest distance between two distinct points; inf for n < 2."""
    best = math.inf
    pts = cloud.as_array()
    for rows, d in distance_blocks(pts, pts):
        np.fill_diagonal(d[:, rows.start:], np.inf)  # the point itself
        best = min(best, float(d.min()))
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
        a, b = self.source.as_array(), self.target.as_array()
        for i, moved in enumerate(distances(a, b).tolist()):
            if not moved < self.epsilon:
                raise ValidationError(
                    f"pair {i} displaced by {moved} >= epsilon {self.epsilon}")
        # Every pair is within epsilon, so the pairing is mutually unique
        # iff no other source-target pair is.
        within = sum(int((d < self.epsilon).sum()) for _, d in distance_blocks(a, b))
        if within > len(a):
            raise ValidationError("pairing is not mutually unique")

    def max_displacement(self) -> float:
        a, b = self.source.as_array(), self.target.as_array()
        return float(distances(a, b).max())


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
    target = PointCloud.from_points(cloud.as_array() + offsets)
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
    case fall back to comparing with ``delaunay(target)``. Both shortcuts
    only return False where that comparison does, so the answer, errors
    included, is exactly the two-triangulation comparison.
    """
    src = delaunay(pair.source)
    tops = np.asarray(src.top_simplices, dtype=np.int64)
    facets = interior_facets(tops)
    before, _ = certificate(pair.source.points, tops, ())
    after, inball = certificate(pair.target.points, tops, facets)
    flips = before * after
    if ((flips > 0).any() and (flips < 0).any()) or (inball > 0).any():
        return False
    return src.all_simplices == delaunay(pair.target).all_simplices
