"""Synthetic shape samplers and noise models.

Six shape classes sampled uniformly on their ideal manifold as subsets of
R^3, plus a bounded uniform-in-ball noise model. Everything is deterministic
per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import PointCloud, _check_int, _check_real
from .errors import UnknownShape, ValidationError
from .geometry import _ball_offsets

SHAPE_KINDS = ("circle", "sphere", "torus", "random",
               "three_clusters", "nested_clusters")

_DEFAULTS = {
    "circle": {"radius": 1.0},
    "sphere": {"radius": 1.0},
    "torus": {"major_radius": 2.0, "minor_radius": 1.0},
    "random": {"half_width": 1.0},
    "three_clusters": {"side": 2.0, "spread": 0.1},
    "nested_clusters": {"side": 2.0, "sub_side": 0.4, "spread": 0.03},
}


@dataclass(frozen=True)
class ShapeClass:
    """A shape kind and its parameters, the defaults updated by ``params``:
    finite reals, not bools, a ``spread`` >= 0 and the others > 0, a torus's
    ``minor_radius`` at most its ``major_radius`` (ValidationError else)."""

    kind: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise UnknownShape(f"unknown shape kind {self.kind!r}")
        merged = dict(_DEFAULTS[self.kind])
        unknown = set(self.params) - set(merged)
        if unknown:
            raise ValidationError(f"unknown parameters for {self.kind}: {unknown}")
        merged.update(self.params)
        for name, value in merged.items():
            _check_real(name, value, 0, above=name != "spread")
        if self.kind == "torus" and merged["minor_radius"] > merged["major_radius"]:
            raise ValidationError("torus minor_radius must be <= major_radius")
        object.__setattr__(self, "params", merged)


def _triangle_centers(side: float) -> np.ndarray:
    """Vertices of an equilateral triangle of the given side, in z=0,
    centered on the origin."""
    r = side / math.sqrt(3.0)
    angles = [math.pi / 2 + k * 2 * math.pi / 3 for k in range(3)]
    return np.array([[r * math.cos(a), r * math.sin(a), 0.0] for a in angles])


def sample_shape(shape: ShapeClass, n: int, seed: int) -> PointCloud:
    """n points in R^3, uniform on the ideal shape; ints n >= 1, seed >= 0."""
    _check_int("n", n, 1)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    p = shape.params
    if shape.kind == "circle":
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        pts = np.column_stack([p["radius"] * np.cos(theta),
                               p["radius"] * np.sin(theta),
                               np.zeros(n)])
    elif shape.kind == "sphere":
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        pts = p["radius"] * v
    elif shape.kind == "torus":
        pts = _sample_torus(rng, n, p["major_radius"], p["minor_radius"])
    elif shape.kind == "random":
        w = p["half_width"]
        pts = rng.uniform(-w, w, (n, 3))
    elif shape.kind == "three_clusters":
        centers = _triangle_centers(p["side"])
        idx = np.arange(n) % 3
        pts = centers[idx] + p["spread"] * rng.standard_normal((n, 3))
    else:  # nested_clusters
        main = _triangle_centers(p["side"])
        sub = _triangle_centers(p["sub_side"])
        centers = np.array([m + s for m in main for s in sub])
        idx = np.arange(n) % 9
        pts = centers[idx] + p["spread"] * rng.standard_normal((n, 3))
    return PointCloud(pts)


def _sample_torus(rng, n, big_r, small_r):
    """Area-uniform torus sampling: the tube angle is drawn by rejection
    against the (R + r cos v) surface density."""
    u = rng.uniform(0.0, 2.0 * math.pi, n)
    v = np.empty(n)
    filled = 0
    while filled < n:
        cand = rng.uniform(0.0, 2.0 * math.pi, n)
        accept = rng.uniform(0.0, 1.0, n) < (big_r + small_r * np.cos(cand)) / (big_r + small_r)
        take = min(int(accept.sum()), n - filled)
        v[filled:filled + take] = cand[accept][:take]
        filled += take
    ring = big_r + small_r * np.cos(v)
    return np.column_stack([ring * np.cos(u), ring * np.sin(u),
                            small_r * np.sin(v)])


def add_noise(cloud: PointCloud, nu: float, seed: int) -> PointCloud:
    """Displace each point by an independent uniform-in-ball vector of
    magnitude at most nu; ``seed`` is an int >= 0."""
    _check_int("seed", seed, 0)
    _check_real("nu", nu, 0)
    if nu == 0:
        return cloud
    offsets = _ball_offsets(np.random.default_rng(seed), len(cloud), cloud.dim, nu)
    return PointCloud(cloud.points + offsets)


def near_cocircular_quad(x: float) -> PointCloud:
    """Three fixed points on the unit circle plus a fourth at (1 - x, 0).

    The off-axis points are (0.5, +-s) with s = fl(sqrt(3)/2), whose square
    is just below 3/4, so at x = 0 the four points are not exactly
    cocircular: (1, 0) lies just outside the circle through the other three,
    and the exact predicates triangulate x = 0 as they do x < 0, with no
    tie (``delaunay(...).degenerate`` is False). For 0 < x < 2 - sqrt(3) the
    fourth point sits inside the circle and the triangulation pairs it with
    the two off-axis points.
    """
    _check_real("x", x, below=2.0 - math.sqrt(3.0))
    s = math.sqrt(3.0) / 2.0
    return PointCloud([(-1.0, 0.0), (0.5, s), (0.5, -s), (1.0 - x, 0.0)])
