"""Cross-checks against independent implementations and adversarial inputs."""

import math
from itertools import permutations

import numpy as np
import pytest
import scipy.spatial

from conftest import random_cloud
from delrips import (FiltrationSpec, PointCloud, build_alpha,
                     build_delaunay_rips, compute_diagram, delaunay)
from test_delaunay import _check_2d_structure, assert_empty_circumballs
from naive_oracle import naive_alpha_edge_value


def scipy_simplex_set(points):
    tri = scipy.spatial.Delaunay(np.asarray(points))
    return {tuple(sorted(int(v) for v in s)) for s in tri.simplices}


@pytest.mark.parametrize("dim,n,seeds", [(2, 60, 4), (2, 200, 2), (3, 80, 3)])
def test_matches_qhull_on_generic_clouds(dim, n, seeds):
    # Random uniform clouds are in general position almost surely, so the
    # Delaunay triangulation is unique and must match Qhull's exactly.
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        cloud = random_cloud(rng, n, dim=dim)
        dc = delaunay(cloud)
        assert not dc.degenerate
        assert set(dc.top_simplices) == scipy_simplex_set(cloud.points)


def test_points_almost_on_a_circle():
    # Trig coordinates round off the circle, so this is generic input.
    n = 9
    pts = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
           for k in range(n)]
    dc = delaunay(PointCloud.from_points(pts))
    assert not dc.degenerate
    assert len(dc.top_simplices) == n - 2  # convex position
    assert_empty_circumballs(dc)
    _check_2d_structure(dc)


def test_points_exactly_on_a_circle():
    # Integer solutions of x^2 + y^2 = 25^2: exactly cocircular in floats.
    base = [(25, 0), (24, 7), (20, 15), (15, 20), (7, 24)]
    pts = []
    for x, y in base:
        pts += [(x, y), (-x, -y)]
        if y:
            pts += [(x, -y), (-x, y)]
    pts = [(float(x), float(y)) for x, y in sorted(set(pts))]
    dc = delaunay(PointCloud.from_points(pts))
    assert dc.degenerate
    assert len(dc.top_simplices) == len(pts) - 2
    assert_empty_circumballs(dc)
    _check_2d_structure(dc)


def test_two_concentric_rings():
    pts = []
    for r in (1.0, 2.0):
        for k in range(8):
            a = 2 * math.pi * k / 8 + (0.1 if r > 1 else 0.0)
            pts.append((r * math.cos(a), r * math.sin(a)))
    dc = delaunay(PointCloud.from_points(pts))
    assert_empty_circumballs(dc)
    _check_2d_structure(dc)


def test_coarse_grid_snap(rng):
    # Snapping to a coarse grid creates many exact cocircular quadruples.
    raw = rng.uniform(0, 8, (40, 2))
    snapped = sorted({(float(round(x)), float(round(y))) for x, y in raw})
    dc = delaunay(PointCloud.from_points(snapped))
    assert_empty_circumballs(dc)
    _check_2d_structure(dc)


def test_cube_corners_cospherical():
    pts = [(float(i), float(j), float(k))
           for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    dc = delaunay(PointCloud.from_points(pts))
    assert dc.degenerate
    assert_empty_circumballs(dc)
    vol = 0.0
    arr = np.asarray(pts)
    for t in dc.top_simplices:
        vol += abs(np.linalg.det(arr[list(t[1:])] - arr[t[0]])) / 6.0
    assert vol == pytest.approx(1.0, rel=1e-12)


def test_sphere_points_all_cospherical():
    rng = np.random.default_rng(77)
    v = rng.standard_normal((30, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    dc = delaunay(PointCloud.from_points(v))
    assert_empty_circumballs(dc)


def test_collinear_run_inside_cloud():
    pts = [(float(i), 0.0) for i in range(5)]
    pts += [(2.0, 3.0), (2.0, -3.0)]
    dc = delaunay(PointCloud.from_points(pts))
    assert_empty_circumballs(dc)
    _check_2d_structure(dc)


def test_diagram_invariant_under_point_permutation(rng):
    base = random_cloud(rng, 15)
    spec = FiltrationSpec(max_hom_dim=1)
    reference = compute_diagram(build_delaunay_rips(base, spec))
    for perm in list(permutations(range(3)))[:3]:
        order = list(rng.permutation(len(base)))
        cloud = PointCloud.from_points([base[i] for i in order])
        diag = compute_diagram(build_delaunay_rips(cloud, spec))
        assert diag == reference


def test_alpha_edges_match_definition_oracle(rng):
    # Right triangle first: hypotenuse value sqrt(2), legs 1.
    pc = PointCloud.from_points([(0, 0), (1, 0), (0, 1)])
    scales = dict(build_alpha(pc, FiltrationSpec(method="alpha")).entries)
    for (a, b), expect in (((1, 2), math.sqrt(2)), ((0, 1), 1.0)):
        oracle = naive_alpha_edge_value(pc.points, a, b)
        assert oracle == pytest.approx(expect, abs=1e-4)
        assert scales[(a, b)] == pytest.approx(oracle, abs=1e-4)
    for _ in range(4):
        cloud = random_cloud(rng, int(rng.integers(4, 9)))
        filt = build_alpha(cloud, FiltrationSpec(method="alpha"))
        for verts, scale in filt.entries:
            if len(verts) != 2:
                continue
            oracle = naive_alpha_edge_value(cloud.points, *verts)
            assert scale == pytest.approx(oracle, abs=1e-4)
