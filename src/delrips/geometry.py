"""Geometric operations on point clouds: circumspheres, Hausdorff distance,
random perturbations, and triangulation-equality checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PointCloud
from .delaunay import delaunay
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


def _distances(p: PointCloud, q: PointCloud) -> np.ndarray:
    """(len(p), len(q)) array of the distances between their points."""
    diff = p.as_array()[:, None, :] - q.as_array()[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def hausdorff_distance(p: PointCloud, q: PointCloud) -> float:
    """Symmetric Hausdorff distance between two finite clouds."""
    if len(p) == 0 or len(q) == 0:
        raise EmptyCloud("hausdorff_distance requires non-empty clouds")
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimensions differ: {p.dim} vs {q.dim}")
    d = _distances(p, q)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def min_pairwise_distance(cloud: PointCloud) -> float:
    """Smallest distance between two distinct points; inf for n < 2."""
    n = len(cloud)
    if n < 2:
        return math.inf
    d = _distances(cloud, cloud)
    d[np.diag_indices(n)] = np.inf
    return float(d.min())


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
        d = _distances(self.source, self.target)
        n = len(self.source)
        within = d < self.epsilon
        for i in range(n):
            if not within[i, i]:
                raise ValidationError(
                    f"pair {i} displaced by {d[i, i]} >= epsilon {self.epsilon}")
        if n > 1 and (within.sum(axis=0).max() > 1 or within.sum(axis=1).max() > 1):
            raise ValidationError("pairing is not mutually unique")

    def max_displacement(self) -> float:
        a = self.source.as_array()
        b = self.target.as_array()
        return float(np.linalg.norm(a - b, axis=1).max())


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
    the index pairing."""
    a = delaunay(pair.source)
    b = delaunay(pair.target)
    return a.all_simplices == b.all_simplices
