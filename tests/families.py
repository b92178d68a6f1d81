"""Point-cloud families shared by the tests: uniform clouds and the
adversarial families, jittered grids and near-planar sets, on which Alpha
once rejected clouds that ``delaunay()`` accepts.

The regression families number their clouds by seed: the jittered grid of
seed s has 10 + s % 50 points (seeds 0-149 in R^2 and R^3), the near-planar
cloud of seed s has 20 + s points in R^3 with z jitter 1e-9 (seeds 0-49).
"""

import numpy as np


def uniform(dim, n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, dim))


def jittered_grid(dim, n, seed):
    """n points rounded to the 1/8 grid of the unit cube, then moved by up
    to 1e-13 per coordinate: nearly cospherical everywhere."""
    rng = np.random.default_rng(seed)
    pts = np.round(rng.uniform(0.0, 1.0, (n, dim)) * 8.0) / 8.0
    return pts + rng.uniform(-1e-13, 1e-13, (n, dim))


def near_planar(n, seed, flatness):
    """n uniform points of [-1, 1]^3 with z scaled by ``flatness``."""
    pts = uniform(3, n, seed)
    pts[:, 2] *= flatness
    return pts


def jittered_grid_member(dim, seed):
    return jittered_grid(dim, 10 + seed % 50, seed)


def near_planar_member(seed):
    return near_planar(20 + seed, seed, 1e-9)
