"""Geometric operations on point clouds: Hausdorff and minimum distances,
random perturbations, and triangulation-equality checks.

Distances come from ``core.distances`` (finite and nonzero near 1e-200 or
1e160). Hausdorff takes them in the row blocks of ``core.distance_blocks``;
the minimum distance and the pairing check take them only for the pairs of
a ``core._sweep_pairs`` sweep, which leaves out no pair that could change
the result. The minima, maxima and counts combine exactly.

``same_triangulation`` answers exactly as comparing the two Delaunay
triangulations would. It first looks for a local witness, a simplex whose
empty circumball proves it is in the source's triangulation and whose
target circumball holds a target point strictly inside (Mehlhorn et al.,
"Checking geometric programs or verification of geometric structures",
1999). Only when there is none does it triangulate both clouds and compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (PointCloud, _blocks, _check_int, _check_real, _sweep_pairs,
                   distance_blocks, distances)
from .delaunay import certificate, delaunay
from .errors import (DimensionMismatch, EpsilonTooLarge, GeometryError,
                     ValidationError)

# The local witness of ``same_triangulation``: up to _SEEDS seed points,
# each triangulated with its _NEIGHBOURS nearest source points, on clouds of
# more than twice that many points. On the 300-point noisy-sphere pairs of
# the stability benchmark these values find a witness for 235 of 240
# changed pairs, and a search that finds none adds about 12% to the two
# triangulations of an unchanged pair.
_NEIGHBOURS = 32
_SEEDS = 2


def hausdorff_distance(p: PointCloud, q: PointCloud) -> float:
    """Symmetric Hausdorff distance between two finite clouds."""
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
        _check_real("epsilon", self.epsilon, 0, above=True)
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
    the perturbation pairing is mutually unique. Deterministic per seed >= 0.
    The target coordinates round, so a point whose rounded displacement
    reaches eps has its offset halved until it is below eps (at the latest
    when the offset is zero); every other point keeps the bits of its
    offset.
    """
    _check_real("eps", eps, 0, above=True)
    _check_int("seed", seed, 0)
    half_min = min_pairwise_distance(cloud) / 2.0
    if eps >= half_min:
        raise EpsilonTooLarge(
            f"eps {eps} >= half the minimum pairwise distance {half_min}")
    rng = np.random.default_rng(seed)
    offsets = _ball_offsets(rng, len(cloud), cloud.dim, eps)
    target = cloud.points + offsets
    far = np.flatnonzero(~(distances(cloud.points, target) < eps))
    while len(far):
        offsets[far] /= 2.0
        target[far] = cloud.points[far] + offsets[far]
        far = far[~(distances(cloud.points[far], target[far]) < eps)]
    return PerturbationPairing(source=cloud, target=PointCloud(target),
                               epsilon=eps)


def _pairs_outside(simplices, queries) -> np.ndarray:
    """(i, q) rows for every simplex row i and every query id q that is not
    one of its vertices."""
    i = np.repeat(np.arange(len(simplices)), len(queries))
    q = np.tile(queries, len(simplices))
    keep = ~(simplices[i] == q[:, None]).any(axis=1)
    return np.stack([i[keep], q[keep]], axis=1)


def _local_witness(pair: PerturbationPairing) -> bool:
    """Whether a simplex proves that the Delaunay triangulation changed.

    A simplex with nonzero orientation and every other point strictly
    outside its circumball is in every Delaunay triangulation of the cloud;
    one with a point strictly inside is in none. So a simplex of the first
    kind in the source and of the second in the target is in
    ``delaunay(source)`` and not in ``delaunay(target)``, and both calls
    succeed: neither cloud is flat, and the pairing rules out duplicate
    points. The comparison then returns False.

    Candidates are the simplices of the Delaunay triangulation of a seed
    point and its ``_NEIGHBOURS`` nearest source points, for up to
    ``_SEEDS`` seeds in order of decreasing displacement. A candidate is a
    witness if one of those neighbours lies strictly inside its target
    circumball and no other source point lies inside or on its source
    circumball, checked in ``core._blocks`` chunks of candidates. No test
    pairs a simplex with its own vertex, whose zero sign would take the
    exact stage. Skipped on clouds of at most 2 * ``_NEIGHBOURS`` points.
    """
    a, b = pair.source.points, pair.target.points
    n, dim = a.shape
    if n <= 2 * _NEIGHBOURS:
        return False
    moved = distances(a, b)
    for v in np.argsort(-moved, kind="stable")[:_SEEDS]:
        nearest = np.argsort(distances(a[v], a), kind="stable")
        near = np.sort(nearest[:_NEIGHBOURS + 1])
        try:
            local = delaunay(PointCloud(a[near]))
        except GeometryError:
            continue
        cand = near[local.faces(dim)]
        facets = _pairs_outside(cand, near)
        _, inball = certificate(b, cand, facets)
        cand = cand[np.unique(facets[inball > 0, 0])]
        # A flat candidate gets sign 0 against every other point, so no
        # candidate with a zero source orientation passes.
        for rows in _blocks(np.full(len(cand), n)):
            part = cand[rows]
            facets = _pairs_outside(part, np.arange(n))
            _, inball = certificate(a, part, facets)
            inside = np.bincount(facets[inball >= 0, 0], minlength=len(part))
            if (inside == 0).any():
                return True
    return False


def same_triangulation(pair: PerturbationPairing) -> bool:
    """True iff source and target have identical Delaunay simplex sets under
    the index pairing.

    A local witness (``_local_witness``), found on a few neighbourhoods,
    answers False. Otherwise the top simplices of ``delaunay(source)`` and
    ``delaunay(target)`` are compared; a full-dimensional triangulation's
    d-simplices fix all its faces. So the answer, errors included, is
    exactly the two-triangulation comparison.
    """
    if _local_witness(pair):
        return False
    dim = pair.source.dim
    return np.array_equal(delaunay(pair.source).faces(dim),
                          delaunay(pair.target).faces(dim))
