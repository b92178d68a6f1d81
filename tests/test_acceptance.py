"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The timing-sensitive half of criterion 7 benchmarks in-repo methods
only, with timed-out cells recorded at the cap.
"""

import math
import time
import warnings

import numpy as np
import pytest

from conftest import random_cloud
from delrips import (FiltrationSpec, PointCloud, bottleneck, boundary_matrix,
                     build_alpha, build_delaunay_rips, build_rips,
                     compute_diagram, delaunay, epsilon_perturb,
                     hausdorff_distance, near_cocircular_quad,
                     persistence_image, persistence_stats, persistent_entropy,
                     reduce_standard, reduce_twist, same_triangulation,
                     stats_feature_vector)
from delrips.bench import run_grid
from delrips.datagen import ShapeClass
from delrips.errors import EpsilonTooLarge
from delrips.persistence import extract_pairs
from delrips.vectorize import fit_pi_grid
from families import jittered_grid_member, near_planar_member
from naive_oracle import (brute_bottleneck, closure_of, dense,
                          merge_sym_diff, naive_vr_diagram)

SQ3 = math.sqrt(3.0)
TOL = 1e-9


def report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def quad_diagram(x):
    filt = build_delaunay_rips(near_cocircular_quad(x),
                               FiltrationSpec(max_hom_dim=1))
    return compute_diagram(filt)


def test_criterion_1_quad_reproduction():
    t0 = time.perf_counter()
    ok = True
    for x in (0.01, 0.1, 0.2):
        diag = quad_diagram(x)
        near = math.sqrt(1.0 - x + x * x)
        expect_h0 = sorted([(0.0, near), (0.0, near), (0.0, SQ3),
                            (0.0, math.inf)])
        got_h0 = sorted(diag.pairs(0))
        ok &= len(got_h0) == 4 and all(
            abs(a - c) <= TOL and (b == d or abs(b - d) <= TOL)
            for (a, b), (c, d) in zip(got_h0, expect_h0))
        nonzero_h1 = [p for p in diag.pairs(1) if p[0] != p[1]]
        ok &= (len(nonzero_h1) == 1
               and abs(nonzero_h1[0][0] - SQ3) <= TOL
               and abs(nonzero_h1[0][1] - (2.0 - x)) <= TOL)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"four-point H0/H1 exact for x in (0.01,0.1,0.2) "
                  f"within 1e-9, {elapsed:.3f}s < 1s")


# Boundary matrix of the four-point filtration and its reduction, columns
# and rows ordered a, b, c, d, bd, cd, ab, ac, ad, abd, acd.
GOLDEN_B = [
    [0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
]
GOLDEN_R = [
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
]


def test_criterion_2_boundary_matrix_golden():
    filt = build_delaunay_rips(near_cocircular_quad(0.1),
                               FiltrationSpec(max_hom_dim=1))
    order_ok = [verts for verts, _ in filt.entries] == [
        (0,), (1,), (2,), (3,), (1, 3), (2, 3), (0, 1), (0, 2), (0, 3),
        (0, 1, 3), (0, 2, 3)]
    mat = boundary_matrix(filt)
    red = reduce_standard(mat)
    ok = (order_ok and dense(mat.columns) == GOLDEN_B
          and dense(red.columns) == GOLDEN_R)
    report(2, ok, "boundary matrix and its reduction match the printed "
                  "matrices bit-for-bit in the printed simplex order")


def test_criterion_3_instability_jump():
    x = 0.01
    h1_out = quad_diagram(-x).pairs(1)
    h1_in = quad_diagram(x).pairs(1)
    half, _ = bottleneck(h1_out, h1_in, diagonal="half")
    full, _ = bottleneck(h1_out, h1_in, diagonal="full")
    expect_full = (2.0 - x) - SQ3
    ok = half >= 0.1 and abs(full - expect_full) <= TOL
    report(3, ok, f"H1 jump across the cocircular configuration: "
                  f"half={half:.6f} >= 0.1, full={full:.9f} = (2-x)-sqrt3")


def test_criterion_4_stability_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    spec = FiltrationSpec(max_hom_dim=1)
    eps = 1e-6
    checked = 0
    violations = 0
    for trial in range(200):
        n = int(rng.integers(3, 26))
        cloud = random_cloud(rng, n)
        try:
            pair = epsilon_perturb(cloud, eps, seed=trial)
        except EpsilonTooLarge:
            continue
        if not same_triangulation(pair):
            continue
        checked += 1
        bound = 2.0 * hausdorff_distance(pair.source, pair.target)
        da = compute_diagram(build_delaunay_rips(pair.source, spec))
        db = compute_diagram(build_delaunay_rips(pair.target, spec))
        for p in (0, 1):
            w, _ = bottleneck(da.pairs(p), db.pairs(p))
            if w > bound + 1e-12:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checked >= 180 and elapsed < 60.0
    report(4, ok, f"bottleneck <= 2*Hausdorff on {checked}/200 clouds with "
                  f"unchanged triangulation, {violations} violations, "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6789)
    ok = True
    for trial in range(500):
        n = int(rng.integers(3, 8))
        cloud = random_cloud(rng, n)
        vr = build_rips(cloud, FiltrationSpec(method="rips", max_hom_dim=1))
        dr = build_delaunay_rips(cloud, FiltrationSpec(max_hom_dim=1))
        for filt in (vr, dr):
            mat = boundary_matrix(filt)
            std = extract_pairs(reduce_standard(mat), filt)
            tw = extract_pairs(reduce_twist(mat), filt)
            ok &= std == tw
        diag = compute_diagram(vr)
        ok &= ({p: diag.pairs(p) for p, _, _ in diag.entries}
               == naive_vr_diagram(cloud.points, 1))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(5, ok, f"twist == standard on 500 clouds (DR and VR), VR equals "
                  f"the powerset oracle exactly, {elapsed:.1f}s < 120s")


def test_criterion_6_final_complex_identity():
    rng = np.random.default_rng(24680)
    clouds = []
    for trial in range(100):
        dim = 2 if trial % 2 == 0 else 3
        n = int(rng.integers(dim + 2, 41))
        clouds.append(random_cloud(rng, n, dim=dim))
    clouds += [PointCloud.from_points(jittered_grid_member(dim, seed))
               for seed in range(0, 150, 10) for dim in (2, 3)]
    clouds += [PointCloud.from_points(near_planar_member(seed))
               for seed in range(0, 50, 5)]
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # cospherical grids
        for cloud in clouds:
            dim = cloud.dim
            dr = build_delaunay_rips(cloud, FiltrationSpec(max_hom_dim=dim - 1))
            al = build_alpha(cloud, FiltrationSpec(method="alpha",
                                                   max_hom_dim=dim - 1))
            dc = delaunay(cloud)
            ok &= ({v for v, _ in dr.entries} == {v for v, _ in al.entries}
                   == closure_of(dc.top_simplices))
    report(6, ok, "final Delaunay-Rips and Alpha complexes equal the "
                  "Delaunay closure on 100 random clouds (2D and 3D), 30 "
                  "jittered grids and 10 near-planar clouds")


def test_criterion_7_size_separation_and_runtime():
    rng = np.random.default_rng(13579)
    cloud = random_cloud(rng, 100)
    vr = build_rips(cloud, FiltrationSpec(method="rips", max_hom_dim=1))
    dr = build_delaunay_rips(cloud, FiltrationSpec(max_hom_dim=1))
    count_ok = len(vr) == 166750 and len(dr) <= 589

    cells, medians = run_grid(ShapeClass(kind="sphere"), nu=0.1, sizes=[400],
                              methods=["delaunay_rips", "rips"],
                              max_hom_dim=1, trials=10, timeout=7.0, seed=99)
    med = {m: t for m, n, t in medians}
    timing_ok = med["delaunay_rips"] < med["rips"]
    ok = count_ok and timing_ok
    report(7, ok, f"VR count 166750 exact, DR count {len(dr)} <= 589; "
                  f"DR median {med['delaunay_rips']:.2f}s < VR median "
                  f"{med['rips']:.2f}s at n=400 (10 trials, 7s cap)")


def test_criterion_8_vectorization_shapes():
    diag = quad_diagram(0.1)
    vec = stats_feature_vector(diag.pairs(0), diag.pairs(1), diag.pairs(2))
    stats_ok = vec.shape == (48,) and np.isnan(vec[32:]).all() \
        and not np.isnan(vec[:32]).any()
    empty_ok = np.isnan(persistence_stats([])).all()

    diagrams = [quad_diagram(x) for x in (0.05, 0.1, 0.2)]
    resolutions = {0: (5, 1), 1: (5, 5), 2: (5, 5)}
    total = 0
    for p, res in resolutions.items():
        pair_sets = [d.pairs(p) for d in diagrams]
        if not any(any(math.isfinite(dd) for _, dd in ps)
                   for ps in pair_sets):
            pair_sets = [[(0.0, 1.0)]]  # empty H2 here: grid still 5x5
        grid = fit_pi_grid(pair_sets, resolution=res)
        img = persistence_image(diagrams[0].pairs(p), grid)
        total += img.shape[0]
    pi_ok = total == 55
    ok = stats_ok and empty_ok and pi_ok
    report(8, ok, "48 persistence statistics with NaN for empty diagrams; "
                  "5x1 + 5x5 + 5x5 image blocks give 55 features")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(1111)

    # Persistence-image additivity under diagram union.
    grid = fit_pi_grid([[(0.0, 1.0), (0.5, 2.5)]], resolution=(3, 3))
    pi_ok = True
    for _ in range(10):
        d1 = [(float(b), float(b + p)) for b, p in rng.uniform(0, 2, (3, 2))]
        d2 = [(float(b), float(b + p)) for b, p in rng.uniform(0, 2, (2, 2))]
        lhs = persistence_image(d1 + d2, grid)
        rhs = persistence_image(d1, grid) + persistence_image(d2, grid)
        pi_ok &= bool(np.allclose(lhs, rhs, atol=1e-12))

    entropy_ok = all(
        abs(persistent_entropy([7.5] * k) - math.log(k)) <= 1e-12
        for k in range(1, 30))

    dd_ok = True
    for _ in range(5):
        cloud = random_cloud(rng, int(rng.integers(3, 12)))
        for builder, m in ((build_rips, "rips"),
                           (build_delaunay_rips, "delaunay_rips"),
                           (build_alpha, "alpha")):
            filt = builder(cloud, FiltrationSpec(method=m, max_hom_dim=1))
            mat = boundary_matrix(filt)
            for col in mat.columns:
                acc = []
                for i in col:
                    acc = merge_sym_diff(acc, mat.columns[i])
                dd_ok &= acc == []

    metric_ok = True
    for _ in range(40):
        def rand_diag(k):
            out = []
            for _ in range(int(rng.integers(0, k + 1))):
                b = float(rng.uniform(0, 2))
                out.append((b, b + float(rng.uniform(0, 2))))
            return out
        x, y, z = rand_diag(5), rand_diag(5), rand_diag(5)
        wxy, _ = bottleneck(x, y)
        metric_ok &= abs(wxy - bottleneck(y, x)[0]) <= 1e-15
        metric_ok &= abs(wxy - brute_bottleneck(x, y)) <= 1e-12
        wxz, _ = bottleneck(x, z)
        wzy, _ = bottleneck(z, y)
        metric_ok &= wxy <= wxz + wzy + 1e-12

    ok = pi_ok and entropy_ok and dd_ok and metric_ok
    report(9, ok, "image additivity, entropy of equal bars = ln k, "
                  "boundary-of-boundary vanishes, bottleneck symmetry and "
                  "triangle inequality vs the exhaustive oracle")
