import math
import tracemalloc
import warnings
from itertools import combinations, product

import numpy as np
import pytest

from conftest import count_facet_incidence, random_cloud
from delrips import (DelaunayComplex, FiltrationSpec, PointCloud, ShapeClass,
                     add_noise, build_alpha, build_delaunay_rips, build_rips,
                     compute_diagram, delaunay, near_cocircular_quad,
                     sample_shape, sort_filtration)
from delrips.core import pairwise_distances
from delrips.errors import DuplicatePoints, ValidationError
from delrips.filtration import _alpha_scales, _rips_scales
from families import (cocircular_square, jittered_grid, jittered_grid_member,
                      near_planar_member, uniform)
from naive_oracle import (alpha_disagreements, closure_of, exact_alpha,
                          rips_entries)
from test_delaunay_golden import CORPUS

SQ3 = math.sqrt(3.0)


def spec(method, maxdim=1, threshold=None):
    return FiltrationSpec(method=method, max_hom_dim=maxdim,
                          threshold=threshold)


class TestSpecValidation:
    def test_threshold_only_for_rips(self):
        with pytest.raises(ValidationError):
            FiltrationSpec(method="alpha", threshold=1.0)

    def test_dimension_cap_against_ambient(self):
        pc = random_cloud_2d()
        with pytest.raises(ValidationError):
            build_delaunay_rips(pc, spec("delaunay_rips", maxdim=2))
        with pytest.raises(ValidationError):
            build_alpha(pc, spec("alpha", maxdim=2))

    @pytest.mark.parametrize("builder, method", [
        (builder, method)
        for builder, own in ((build_rips, "rips"),
                             (build_delaunay_rips, "delaunay_rips"),
                             (build_alpha, "alpha"))
        for method in ("rips", "delaunay_rips", "alpha") if method != own])
    def test_builder_rejects_a_spec_for_another_method(self, builder, method):
        # build_delaunay_rips built Delaunay-Rips from a Rips spec, dropping
        # its threshold, and build_rips built Rips from an Alpha spec.
        with pytest.raises(ValidationError, match="does not match"):
            builder(random_cloud_2d(), spec(method))

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            FiltrationSpec(method="cech")

    @pytest.mark.parametrize("method", ["rips", "delaunay_rips", "alpha"])
    @pytest.mark.parametrize("bad", [1.5, "1", 1.0, True, -1, None])
    def test_max_hom_dim_must_be_an_integer(self, method, bad):
        # 1.5 and "1" raised TypeError inside the builders, Alpha failed
        # at a slice with 1.0, and True built with cap 2.
        with pytest.raises(ValidationError, match="max_hom_dim"):
            FiltrationSpec(method=method, max_hom_dim=bad)
        FiltrationSpec(method=method, max_hom_dim=np.int64(1))

    @pytest.mark.parametrize("bad", ["1", -1.0, math.nan, 1j])
    def test_threshold_must_be_a_real_number(self, bad):
        with pytest.raises(ValidationError, match="threshold"):
            FiltrationSpec(method="rips", threshold=bad)


def random_cloud_2d():
    return PointCloud([(0, 0), (1, 0), (0, 1), (0.4, 0.7)])


def _rips_corpus():
    """Point arrays for ``test_rips_matches_reference_loop``: uniform clouds
    in R^2 and R^3 with n = 0-3 and larger, integer grids (many tied
    lengths), clouds scaled near 1e150 and 2**-664, and a duplicate point."""
    clouds = {f"uniform-r{dim}-{n}": uniform(dim, n, 10 * n + dim)
              for dim in (2, 3) for n in (0, 1, 2, 3, 9, 17, 30)}
    clouds["grid-5x5"] = np.array(list(product(range(5), repeat=2)), float)
    clouds["grid-3x3x3"] = np.array(list(product(range(3), repeat=3)), float)
    clouds["huge-r3"] = uniform(3, 12, 150) * 1e150
    clouds["tiny-r2"] = uniform(2, 12, 664) * 2.0 ** -664
    clouds["duplicate-r2"] = uniform(2, 9, 4)
    clouds["duplicate-r2"][6] = clouds["duplicate-r2"][2]
    return clouds


RIPS_CORPUS = _rips_corpus()


@pytest.mark.parametrize("max_hom_dim", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(RIPS_CORPUS))
def test_rips_matches_reference_loop(name, max_hom_dim):
    # Small clouds at cap 3 have no simplex of the top dimension. Thresholds:
    # none, 0 (only duplicates joined), an exact edge length (ties at the
    # threshold are kept), half the longest edge, and inf.
    points = RIPS_CORPUS[name]
    if len(points) == 0:  # no cloud to build from
        with pytest.raises(ValidationError, match="^point cloud is empty$"):
            PointCloud(points)
        return
    cloud = PointCloud(points)
    lengths = sorted(s for verts, s in rips_entries(cloud, 0, None)
                     if len(verts) == 2) or [0.0]
    for threshold in (None, 0.0, lengths[len(lengths) // 2],
                      lengths[-1] / 2, math.inf):
        filt = build_rips(cloud, spec("rips", max_hom_dim, threshold))
        want = rips_entries(cloud, max_hom_dim, threshold)
        assert filt.max_dim == max_hom_dim + 1
        assert filt.entries == tuple(want)
        assert ([s.hex() for _, s in filt.entries]
                == [s.hex() for _, s in want])


def test_rips_build_peak_memory_near_its_arrays():
    # Entry tuples take over 6 times the bytes of the face and scale
    # arrays; the build makes no tuples and stays within 3 times.
    cloud = PointCloud(uniform(3, 150, 2021))
    tracemalloc.start()
    try:
        filt = build_rips(cloud, spec("rips", maxdim=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    faces, _, scales = filt._arrays
    assert len(scales) == 150 + 11175 + 551300
    assert peak < 3 * (sum(f.nbytes for f in faces) + scales.nbytes)


class TestRips:
    def test_single_point(self):
        filt = build_rips(PointCloud([(5, 7)]), spec("rips"))
        assert filt.entries == (((0,), 0.0),)
        assert filt.max_dim == 2

    def test_equilateral_triangle(self):
        s = 2.5
        pc = PointCloud(
            [(0, 0), (s, 0), (s / 2, s * SQ3 / 2)])
        filt = build_rips(pc, spec("rips", maxdim=1))
        scales = dict(filt.entries)
        for e in combinations(range(3), 2):
            assert scales[e] == pytest.approx(s)
        assert scales[(0, 1, 2)] == pytest.approx(s)
        diag = compute_diagram(filt)
        (h1_pair,) = diag.pairs(1)
        assert h1_pair[0] == h1_pair[1]  # zero persistence

    def test_binomial_counts(self, rng):
        pc = random_cloud(rng, 12)
        filt = build_rips(pc, spec("rips", maxdim=1))
        # 12 + C(12,2) + C(12,3)
        assert len(filt) == 12 + 66 + 220

    def test_threshold_caps_simplices(self):
        pc = PointCloud([(0, 0), (1, 0), (10, 0), (0.5, 0.9)])
        filt = build_rips(pc, spec("rips", maxdim=1, threshold=2.0))
        assert all(s <= 2.0 for _, s in filt.entries)
        assert (0, 2) not in {verts for verts, _ in filt.entries}

    def test_sorted_and_valid(self, rng):
        filt = build_rips(random_cloud(rng, 9), spec("rips", maxdim=2))
        assert sort_filtration(filt) == filt


class TestDelaunayRips:
    def test_quad_scales_exact(self):
        x = 0.1
        filt = build_delaunay_rips(near_cocircular_quad(x), spec("delaunay_rips"))
        scales = dict(filt.entries)
        near = math.sqrt(1 - x + x * x)
        assert scales[(1, 3)] == pytest.approx(near, abs=1e-15)
        assert scales[(2, 3)] == pytest.approx(near, abs=1e-15)
        assert scales[(0, 1)] == pytest.approx(SQ3, abs=1e-15)
        assert scales[(0, 2)] == pytest.approx(SQ3, abs=1e-15)
        assert scales[(0, 3)] == pytest.approx(2 - x, abs=1e-15)
        assert scales[(0, 1, 3)] == pytest.approx(2 - x, abs=1e-15)
        assert scales[(0, 2, 3)] == pytest.approx(2 - x, abs=1e-15)
        assert all(scales[(i,)] == 0.0 for i in range(4))

    def test_triangle_equals_rips(self):
        pc = PointCloud([(0, 0), (2, 0), (1, 3)])
        assert (build_delaunay_rips(pc, spec("delaunay_rips"))
                == build_rips(pc, spec("rips")))

    def test_rectangle_h1_pair(self):
        # Cocircular rectangle: the tie-break diagonal gives H1 = (2, sqrt 5).
        pc = PointCloud([(0, 0), (2, 0), (2, 1), (0, 1)])
        with pytest.warns(UserWarning):
            filt = build_alpha(pc, spec("alpha"))  # degeneracy warns
        with pytest.warns(UserWarning):
            filt = build_delaunay_rips(pc, spec("delaunay_rips"))
        diag = compute_diagram(filt)
        nonzero = [p for p in diag.pairs(1) if p[0] != p[1]]
        assert nonzero == [(2.0, pytest.approx(math.sqrt(5)))]

    def test_tiny_clouds(self):
        one = build_delaunay_rips(PointCloud([(1, 2)]),
                                  spec("delaunay_rips"))
        assert one.entries == (((0,), 0.0),)
        two = build_delaunay_rips(PointCloud([(0, 0), (0, 3)]),
                                  spec("delaunay_rips"))
        assert two.entries == (((0,), 0.0), ((1,), 0.0), ((0, 1), 3.0))

    @pytest.mark.parametrize("build", [build_delaunay_rips, build_alpha])
    def test_two_coincident_points_raise(self, build):
        pc = PointCloud([(0, 0), (0, 0)])
        method = "alpha" if build is build_alpha else "delaunay_rips"
        with pytest.raises(DuplicatePoints, match="points 0 and 1 coincide"):
            build(pc, spec(method))
        assert build_rips(pc, spec("rips")).entries[-1] == ((0, 1), 0.0)

    def test_tie_break_warns_at_the_caller(self):
        square = PointCloud([(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.warns(UserWarning, match="cospherical points") as record:
            build_delaunay_rips(square, spec("delaunay_rips"))
        assert record[0].filename == __file__
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_delaunay_rips(near_cocircular_quad(0.1), spec("delaunay_rips"))

    @pytest.mark.parametrize("x, tie", [(0.0, True), (2.0 ** -20, False),
                                        (-2.0 ** -20, False)])
    def test_cocircular_square_ties_only_at_zero(self, x, tie):
        cloud = PointCloud(cocircular_square(x))
        assert delaunay(cloud).degenerate == tie
        for build, method in ((build_delaunay_rips, "delaunay_rips"),
                              (build_alpha, "alpha")):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                build(cloud, spec(method))
            assert [str(w.message).startswith("cospherical points")
                    for w in record] == [True] * tie

    def test_scale_is_max_edge_scale(self, rng):
        for _ in range(5):
            filt = build_delaunay_rips(random_cloud(rng, 15),
                                       spec("delaunay_rips"))
            scales = dict(filt.entries)
            for verts, s in filt.entries:
                if len(verts) >= 3:
                    assert s == max(scales[e] for e in combinations(verts, 2))


def _noisy(kind, n, seed, dim):
    cloud = add_noise(sample_shape(ShapeClass(kind=kind), n, seed), 0.1, seed + 1)
    return PointCloud([p[:dim] for p in cloud.points])


def _scaled_uniform(dim, seed):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-1.0, 1.0, (50, dim)) * 1e150)


BIT_IDENTITY_CLOUDS = {
    "noisy-circle-r2": lambda: _noisy("circle", 80, 3, 2),
    "noisy-torus-r3": lambda: _noisy("torus", 120, 5, 3),
    "quad-minus": lambda: near_cocircular_quad(-0.1),
    "quad-cocircular": lambda: near_cocircular_quad(0.0),
    "quad-plus": lambda: near_cocircular_quad(0.1),
    "uniform-r2-1e150": lambda: _scaled_uniform(2, 7),
    "uniform-r3-1e150": lambda: _scaled_uniform(3, 8),
    "jittered-grid-r2": lambda: PointCloud(jittered_grid(2, 60, 33)),
    "jittered-grid-r3": lambda: PointCloud(jittered_grid(3, 50, 34)),
    "near-planar-r3": lambda: PointCloud(near_planar_member(30)),
    "integer-grid-r2": lambda: PointCloud(
        [(i, j) for i in range(5) for j in range(4)]),
    "integer-grid-r3": lambda: PointCloud(
        [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]),
    "uniform-r2-tiny": lambda: PointCloud(
        uniform(2, 60, 35) * 2.0 ** -664),
    "uniform-r3-tiny": lambda: PointCloud(
        uniform(3, 60, 36) * 2.0 ** -664),
    "uniform-r2-huge": lambda: PointCloud(
        uniform(2, 60, 37) * 2.0 ** 532),
    "uniform-r3-huge": lambda: PointCloud(
        uniform(3, 60, 38) * 2.0 ** 532),
    "triangle": lambda: PointCloud([(0.0, 0.0), (3.0, 0.5),
                                    (1.0, 2.0)]),
    "tetrahedron": lambda: PointCloud(
        [(0.0, 0.0, 0.0), (2.0, 0.0, 0.5), (0.5, 1.5, 0.0), (0.5, 0.5, 1.0)]),
}


@pytest.mark.filterwarnings("ignore:cospherical points")  # integer grids
@pytest.mark.parametrize("name", sorted(BIT_IDENTITY_CLOUDS))
def test_dr_scales_bit_identical_to_dense_matrix(name):
    # Delaunay-Rips computes edge lengths itself; they must equal the Rips
    # matrix entries exactly, and the filtration must equal the one built
    # from that matrix.
    cloud = BIT_IDENTITY_CLOUDS[name]()
    dist = pairwise_distances(cloud)

    def diameter(verts):
        return max((dist[a][b] for a, b in combinations(verts, 2)), default=0.0)

    faces = closure_of(delaunay(cloud).top_simplices)
    for cap in range(1, cloud.dim + 1):
        filt = build_delaunay_rips(cloud, spec("delaunay_rips", maxdim=cap - 1))
        for verts, scale in filt.entries:
            assert scale == diameter(verts)
        reference = sorted(((s, diameter(s)) for s in faces if len(s) <= cap + 1),
                           key=lambda e: (e[1], len(e[0]), e[0]))
        assert filt.entries == tuple(reference)


@pytest.mark.parametrize("method,build", [("delaunay_rips", build_delaunay_rips),
                                          ("alpha", build_alpha)])
def test_one_facet_incidence_per_dimension(method, build, rng, monkeypatch):
    # The certificate, the faces and the scale rule all read the complex's
    # one facet incidence per dimension.
    calls = count_facet_incidence(monkeypatch)
    build(random_cloud(rng, 60, dim=3), spec(method, maxdim=2))
    assert sorted(calls) == [1, 2, 3]


@pytest.mark.parametrize("method,build", [("delaunay_rips", build_delaunay_rips),
                                          ("alpha", build_alpha)])
def test_build_never_reads_top_simplices(method, build, rng, monkeypatch):
    def fail(self):
        pytest.fail("top_simplices was read")

    cloud = random_cloud(rng, 60, dim=3)
    monkeypatch.setattr(DelaunayComplex, "top_simplices", property(fail))
    filt = build(cloud, spec(method, maxdim=2))
    diag = compute_diagram(filt)
    monkeypatch.undo()
    assert ({verts for verts, _ in filt.entries if len(verts) == 4}
            == set(delaunay(cloud).top_simplices))
    assert len(diag) > 60


@pytest.mark.parametrize("dim", [2, 3])
def test_dr_scales_survive_tiny_coordinates(dim):
    # Near 1e-200 the squared differences underflow to 0; the scales must
    # still be the unscaled ones times the exact power-of-two factor, bit
    # for bit.
    pts = np.random.default_rng(60 + dim).uniform(-1.0, 1.0, (60, dim))
    tiny = 2.0 ** -664
    cap = spec("delaunay_rips", maxdim=dim - 1)
    want = dict(build_delaunay_rips(PointCloud(pts), cap).entries)
    got = dict(build_delaunay_rips(PointCloud(pts * tiny),
                                   cap).entries)
    assert got.keys() == want.keys()
    for verts, scale in got.items():
        if len(verts) > 1:
            assert scale > 0.0
        assert scale == math.ldexp(want[verts], -664)


@pytest.mark.parametrize("dim", [2, 3])
def test_dr_scales_survive_huge_coordinates(dim):
    # Near 1e160 the squared differences overflow to inf; the scales must
    # still be finite and the unscaled ones times the exact power-of-two
    # factor 2**532 (about 1.4e160), bit for bit.
    pts = np.random.default_rng(160 + dim).uniform(-1.0, 1.0, (30, dim))
    huge = 2.0 ** 532
    cap = spec("delaunay_rips", maxdim=dim - 1)
    want = dict(build_delaunay_rips(PointCloud(pts), cap).entries)
    got = dict(build_delaunay_rips(PointCloud(pts * huge),
                                   cap).entries)
    assert got.keys() == want.keys()
    for verts, scale in got.items():
        assert math.isfinite(scale)
        assert scale == math.ldexp(want[verts], 532)


def test_dr_build_peak_memory_below_dense_matrix():
    # The old build held the n x n distance matrix; its bare float payload
    # (n*n*8 bytes) alone exceeds what the output-sensitive build allocates.
    n = 1000
    cloud = PointCloud(
        np.random.default_rng(2024).uniform(0.0, 1.0, (n, 2)))
    tracemalloc.start()
    try:
        build_delaunay_rips(cloud, spec("delaunay_rips"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_alpha_scales_peak_memory_near_rips_scales():
    # The Alpha rule's kernels gather coordinates a chunk at a time, so its
    # peak stays within a small factor of the Delaunay-Rips rule's on the
    # same complex, whose faces and incidences are derived beforehand.
    cloud = add_noise(sample_shape(ShapeClass("sphere"), 1000, 5), 0.1, 6)
    dc = delaunay(cloud)
    for k in range(1, 3):
        dc._cofaces(k)
    peaks = []
    for rule in (_rips_scales, _alpha_scales):
        tracemalloc.start()
        try:
            rule(dc, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 5 * peaks[0]


JITTERED_GRIDS = [(2, 10, 50), (2, 12, 52), (2, 20, 110), (3, 14, 4), (3, 15, 5)]


class TestAlpha:
    def test_two_points(self):
        filt = build_alpha(PointCloud([(0, 0), (0, 1.5)]),
                           spec("alpha"))
        assert dict(filt.entries)[(0, 1)] == pytest.approx(1.5)

    def test_gabriel_edge_scale_is_length(self):
        pc = PointCloud([(0, 0), (1, 0), (0.5, 5)])
        scales = dict(build_alpha(pc, spec("alpha")).entries)
        assert scales[(0, 1)] == pytest.approx(1.0)  # diametral ball empty

    def test_right_triangle_values(self):
        pc = PointCloud([(0, 0), (1, 0), (0, 1)])
        filt = build_alpha(pc, spec("alpha"))
        scales = dict(filt.entries)
        # Circumcenter sits on the hypotenuse midpoint: hypotenuse and
        # triangle both enter at sqrt 2 (the circumdiameter).
        assert scales[(1, 2)] == pytest.approx(math.sqrt(2))
        assert scales[(0, 1, 2)] == pytest.approx(math.sqrt(2))
        assert scales[(0, 1)] == pytest.approx(1.0)
        assert scales[(0, 2)] == pytest.approx(1.0)
        diag = compute_diagram(filt)
        assert all(b == d for b, d in diag.pairs(1))  # H1 never persists

    def test_non_gabriel_edge_inherits_coface_value(self):
        # Very obtuse triangle: the long edge's diametral ball contains the
        # apex, so the edge enters with its triangle at the circumdiameter.
        pc = PointCloud([(0, 0), (4, 0), (2, 0.5)])
        scales = dict(build_alpha(pc, spec("alpha")).entries)
        # Base 4 and height 0.5: R = abc / 4A = 4.25, so the diameter is 8.5.
        assert scales[(0, 1)] == pytest.approx(8.5)
        assert scales[(0, 1, 2)] == pytest.approx(8.5)
        assert scales[(0, 1)] > 4.0  # exceeds the edge length

    # Jittered grids on which a Gabriel face's rounded circumradius came out
    # above a coface's, so the unclamped filtration was not monotone.
    @pytest.mark.parametrize("dim,n,seed", JITTERED_GRIDS)
    def test_monotone_on_jittered_grid(self, dim, n, seed):
        pc = PointCloud(jittered_grid(dim, n, seed))
        filt = build_alpha(pc, spec("alpha", maxdim=dim - 1))
        assert sort_filtration(filt) == filt
        compute_diagram(filt)

    # The reference is exact: integer circumdiameters and a Gabriel scan
    # over all points (``naive_oracle.exact_alpha``). An attached face must
    # equal its coface minimum, a Gabriel face its circumdiameter within
    # 1e-12 (relative), capped at that minimum.
    @pytest.mark.parametrize("dim,n,seed", JITTERED_GRIDS)
    def test_equals_coface_dict_reference_on_jittered_grid(self, dim, n, seed):
        pc = PointCloud(jittered_grid(dim, n, seed))
        exact = exact_alpha(pc)
        for cap in range(1, dim + 1):
            filt = build_alpha(pc, spec("alpha", maxdim=cap - 1))
            assert alpha_disagreements(filt.entries, exact) == []

    def test_equals_coface_dict_reference_on_random_clouds(self, rng):
        for trial in range(16):
            dim = 2 + trial % 2
            n = int(rng.integers(dim + 1, 40))
            pc = random_cloud(rng, n, dim=dim, width=10.0 ** (trial % 5 - 2))
            exact = exact_alpha(pc)
            for cap in range(1, dim + 1):
                filt = build_alpha(pc, spec("alpha", maxdim=cap - 1))
                assert alpha_disagreements(filt.entries, exact) == []

    @pytest.mark.filterwarnings("ignore:cospherical points")
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_equals_coface_dict_reference_on_golden_corpus(self, name):
        cloud = PointCloud(CORPUS[name]())
        filt = build_alpha(cloud, spec("alpha", maxdim=cloud.dim - 1))
        assert alpha_disagreements(filt.entries, exact_alpha(cloud)) == []

    # Near 2**-664 the circumsphere solve underflowed (DegenerateSimplex) and
    # near 2**532 it overflowed (NaN scales); the geometry now runs on the
    # exactly rescaled points, so every value is the unscaled one times 2**p.
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", [-664, 532])
    def test_values_scale_exactly_at_extreme_scales(self, dim, p):
        for seed in range(3):
            pts = np.random.default_rng(70 + 10 * dim + seed).uniform(
                -1.0, 1.0, (40, dim))
            for cap in range(1, dim + 1):
                sp = spec("alpha", maxdim=cap - 1)
                want = build_alpha(PointCloud(pts), sp).entries
                got = build_alpha(PointCloud(np.ldexp(pts, p)),
                                  sp).entries
                assert got == tuple((v, math.ldexp(s, p)) for v, s in want)


class TestCrossFiltration:
    def test_builders_satisfy_invariants(self, rng):
        for _ in range(6):
            n = int(rng.integers(3, 31))
            pc = random_cloud(rng, n)
            for build, m in ((build_rips, "rips"),
                             (build_delaunay_rips, "delaunay_rips"),
                             (build_alpha, "alpha")):
                filt = build(pc, spec(m))
                assert sort_filtration(filt) == filt

    def test_final_dr_equals_alpha_equals_delaunay(self, rng):
        for dim in (2, 3):
            for _ in range(3):
                n = int(rng.integers(dim + 2, 25))
                pc = random_cloud(rng, n, dim=dim)
                sp = spec("delaunay_rips", maxdim=dim - 1)
                dr = build_delaunay_rips(pc, sp)
                al = build_alpha(pc, spec("alpha", maxdim=dim - 1))
                dc = delaunay(pc)
                assert ({v for v, _ in dr.entries}
                        == {v for v, _ in al.entries}
                        == closure_of(dc.top_simplices))

    def test_dr_subset_of_rips_with_equal_scales(self, rng):
        pc = random_cloud(rng, 14)
        dr = build_delaunay_rips(pc, spec("delaunay_rips"))
        vr = build_rips(pc, spec("rips"))
        vr_scales = dict(vr.entries)
        for verts, s in dr.entries:
            assert vr_scales[verts] == s

    def test_alpha_scale_at_least_dr_scale(self, rng):
        # Alpha complexes are contained in Delaunay-Rips at every scale, so
        # each shared simplex appears in Alpha no earlier.
        for _ in range(4):
            pc = random_cloud(rng, 12)
            dr = dict(build_delaunay_rips(pc, spec("delaunay_rips")).entries)
            al = dict(build_alpha(pc, spec("alpha")).entries)
            for verts, s in dr.items():
                assert al[verts] >= s - 1e-9

    def test_gabriel_edge_alpha_value_is_its_dr_length(self, rng):
        # Both rules take edge lengths from core.distances, so an edge whose
        # diametral ball is empty enters Alpha at its Delaunay-Rips scale,
        # bit for bit.
        for dim in (2, 3):
            for _ in range(3):
                pc = random_cloud(rng, 30, dim=dim)
                sp = spec("delaunay_rips", maxdim=dim - 1)
                dr = dict(build_delaunay_rips(pc, sp).entries)
                al = dict(build_alpha(pc, spec("alpha",
                                              maxdim=dim - 1)).entries)
                gabriel = [verts for verts, (_, _, empty) in exact_alpha(pc).items()
                           if len(verts) == 2 and empty]
                assert gabriel
                for verts in gabriel:
                    assert al[verts] == dr[verts]

    def test_size_bound_100_points(self, rng):
        pc = random_cloud(rng, 100)
        dr = build_delaunay_rips(pc, spec("delaunay_rips"))
        assert len(dr) <= 589


# Fixed members of the regression families (``families``). Before Alpha
# used the attached-face rule, it raised DegenerateSimplex on 262 of the 300
# jittered grids and on all 50 near-planar clouds, which ``delaunay()``
# accepts; 17 of these 18 were among them.
FAMILY_CLOUDS = (
    [pytest.param(jittered_grid_member, (dim, seed),
                  id=f"jittered-grid-r{dim}-{seed}")
     for seed in range(3, 150, 21) for dim in (2, 3)]
    + [pytest.param(near_planar_member, (seed,), id=f"near-planar-{seed}")
       for seed in range(0, 50, 16)])


@pytest.mark.filterwarnings("ignore:cospherical points")
@pytest.mark.parametrize("member,args", FAMILY_CLOUDS)
def test_regression_families_on_all_builders(member, args):
    cloud = PointCloud(member(*args))
    exact = exact_alpha(cloud)
    for cap in range(1, cloud.dim + 1):
        sp = spec("alpha", maxdim=cap - 1)
        al = build_alpha(cloud, sp)
        assert al.entries == build_alpha(cloud, sp).entries
        assert all(math.isfinite(s) for _, s in al.entries)
        assert alpha_disagreements(al.entries, exact) == []
        dr = build_delaunay_rips(cloud, spec("delaunay_rips", maxdim=cap - 1))
        for filt in (al, dr):
            assert sort_filtration(filt) == filt
            compute_diagram(filt)
        if cap <= 2:
            vr = build_rips(cloud, spec("rips", maxdim=cap - 1))
            assert sort_filtration(vr) == vr
    assert ({v for v, _ in al.entries} == {v for v, _ in dr.entries}
            == closure_of(delaunay(cloud).top_simplices))
