import math
import tracemalloc

import numpy as np
import pytest

from conftest import count_facet_incidence, random_cloud
import delrips.geometry
from delrips import (PerturbationPairing, PointCloud, delaunay,
                     epsilon_perturb, hausdorff_distance,
                     near_cocircular_quad, same_triangulation)
from delrips.core import distances
from delrips.errors import DimensionMismatch, EpsilonTooLarge, ValidationError
from delrips.geometry import min_pairwise_distance
from naive_oracle import closure_of


class TestHausdorff:
    def test_identity_zero(self, rng):
        pc = random_cloud(rng, 12)
        assert hausdorff_distance(pc, pc) == 0.0

    def test_single_pair(self):
        p = PointCloud.from_points([(0, 0)])
        q = PointCloud.from_points([(3, 4)])
        assert hausdorff_distance(p, q) == 5.0

    def test_instability_pair_value(self):
        # Moving only the fourth point by x moves the clouds exactly x apart.
        x = 0.05
        p = near_cocircular_quad(0.0)
        q = near_cocircular_quad(x)
        assert hausdorff_distance(p, q) == pytest.approx(x, abs=1e-15)

    def test_symmetry_and_triangle_inequality(self, rng):
        for _ in range(15):
            a = random_cloud(rng, int(rng.integers(1, 10)))
            b = random_cloud(rng, int(rng.integers(1, 10)))
            c = random_cloud(rng, int(rng.integers(1, 10)))
            dab = hausdorff_distance(a, b)
            assert dab == hausdorff_distance(b, a)
            assert dab <= (hausdorff_distance(a, c)
                           + hausdorff_distance(c, b) + 1e-12)

    def test_errors(self):
        p = PointCloud.from_points([(0, 0)])
        q = PointCloud.from_points([(0, 0, 0)])
        with pytest.raises(DimensionMismatch):
            hausdorff_distance(p, q)


class TestEpsilonPerturb:
    def test_tiny_eps_bound(self):
        pc = PointCloud.from_points([(0, 0), (1, 0), (0, 1), (2, 2)])
        pair = epsilon_perturb(pc, 1e-12, seed=5)
        assert hausdorff_distance(pair.source, pair.target) < 1e-12

    def test_hausdorff_equals_max_displacement(self, rng):
        for seed in range(10):
            pc = random_cloud(rng, int(rng.integers(2, 20)))
            eps = 0.4 * min_pairwise_distance(pc)
            pair = epsilon_perturb(pc, eps, seed=seed)
            dh = hausdorff_distance(pair.source, pair.target)
            assert dh == pytest.approx(_max_displacement(pair), abs=1e-15)

    def test_deterministic_per_seed(self):
        pc = PointCloud.from_points([(0, 0), (3, 0), (0, 3)])
        a = epsilon_perturb(pc, 0.1, seed=9)
        b = epsilon_perturb(pc, 0.1, seed=9)
        assert a.target.points == b.target.points
        c = epsilon_perturb(pc, 0.1, seed=10)
        assert c.target.points != a.target.points

    def test_eps_too_large(self):
        pc = PointCloud.from_points([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(EpsilonTooLarge):
            epsilon_perturb(pc, 0.5, seed=1)
        with pytest.raises(ValidationError):
            epsilon_perturb(pc, 0.0, seed=1)

    def test_pairing_validation(self):
        src = PointCloud.from_points([(0, 0), (1, 0)])
        bad = PointCloud.from_points([(0.9, 0), (1.05, 0)])  # not unique
        with pytest.raises(ValidationError):
            PerturbationPairing(source=src, target=bad, epsilon=1.0)


class TestSameTriangulation:
    def test_tiny_perturbation_true(self, rng):
        pc = random_cloud(rng, 12)
        pair = epsilon_perturb(pc, 1e-9, seed=3)
        assert same_triangulation(pair)

    def test_quad_same_side_true(self):
        a = near_cocircular_quad(0.1)
        b = near_cocircular_quad(0.2)
        pair = PerturbationPairing(source=a, target=b, epsilon=0.2)
        assert same_triangulation(pair)

    def test_quad_across_circle_false(self):
        a = near_cocircular_quad(-0.01)
        b = near_cocircular_quad(0.01)
        pair = PerturbationPairing(source=a, target=b, epsilon=0.1)
        assert not same_triangulation(pair)

    def test_matches_two_triangulations(self):
        # The certificate shortcuts must give exactly the answer of comparing
        # both Delaunay triangulations.
        rng = np.random.default_rng(606)
        pairs = []
        for k in range(360):
            dim = 2 + k % 2
            n = int(rng.integers(dim + 3, 30 if dim == 2 else 18))
            cloud = PointCloud.from_points(rng.uniform(-1.0, 1.0, (n, dim)))
            # Half log-uniform over 1e-9..0.45 (mostly unchanged), half in
            # 0.05..0.45 (mostly changed), of the minimum distance.
            frac = (10.0 ** rng.uniform(-9.0, math.log10(0.45)) if k < 180
                    else rng.uniform(0.05, 0.45))
            eps = frac * min_pairwise_distance(cloud)
            pairs.append(epsilon_perturb(cloud, eps, seed=k))
        shapes = ([(s, s) for s in range(3, 9)]
                  + [(2, 2, 2), (3, 3, 2), (2, 2, 4), (3, 3, 3)])
        for shape in shapes:  # integer grids: zero signs, exact copies
            grid = PointCloud.from_points(
                np.indices(shape).reshape(len(shape), -1).T)
            pairs.append(PerturbationPairing(source=grid, target=grid, epsilon=0.5))
        for k in range(20):  # mirror images: every orientation reverses
            dim = 2 + k % 2
            n = 6 + k
            pts = np.column_stack([np.arange(n) + rng.uniform(0.0, 0.2, n),
                                   rng.uniform(-0.1, 0.1, (n, dim - 1))])
            mirror = pts * np.array([1.0] * (dim - 1) + [-1.0])
            pairs.append(PerturbationPairing(source=PointCloud.from_points(pts),
                                             target=PointCloud.from_points(mirror),
                                             epsilon=0.25))
        xs = [-0.2, -0.05, -0.01, -1e-9, 0.0, 1e-9, 0.01, 0.05, 0.2]
        for a in xs:  # the near-cocircular quad across x = 0
            for b in xs:
                ca, cb = near_cocircular_quad(a), near_cocircular_quad(b)
                eps = 1.01 * max(hausdorff_distance(ca, cb), 1e-12)
                pairs.append(PerturbationPairing(source=ca, target=cb, epsilon=eps))
        assert len(pairs) >= 400
        got = [same_triangulation(pair) for pair in pairs]
        want = [closure_of(delaunay(pair.source).top_simplices)
                == closure_of(delaunay(pair.target).top_simplices)
                for pair in pairs]
        assert got == want
        assert 100 <= sum(want) <= len(want) - 100
        assert all(got[360:390])

    def test_changed_pair_triangulates_source_only(self, monkeypatch):
        calls = []
        real = delrips.geometry.delaunay
        monkeypatch.setattr(delrips.geometry, "delaunay",
                            lambda cloud: calls.append(cloud) or real(cloud))
        cloud = random_cloud(np.random.default_rng(5), 80, dim=3)
        pair = epsilon_perturb(cloud, 0.25 * min_pairwise_distance(cloud), seed=3)
        assert not same_triangulation(pair)
        assert calls == [pair.source]

    def test_decided_pair_reuses_the_source_incidence(self, monkeypatch):
        cloud = random_cloud(np.random.default_rng(5), 80, dim=3)
        pair = epsilon_perturb(cloud, 0.25 * min_pairwise_distance(cloud), seed=3)
        calls = count_facet_incidence(monkeypatch)
        assert not same_triangulation(pair)
        assert calls == [3]


def _max_displacement(pair):
    a, b = pair.source.as_array(), pair.target.as_array()
    return float(distances(a, b).max())


def _scaled(cloud, scale):
    return PointCloud.from_points(cloud.as_array() * scale)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scale", [2.0 ** -664, 2.0 ** 532])
def test_extreme_scales_scale_the_geometry(dim, scale):
    # Squared differences underflow near 2**-664 and overflow near 2**532;
    # the distance kernel's hypot guard must keep every value finite and
    # nonzero, and equal to the scaled unscaled value.
    rng = np.random.default_rng(90 + dim)
    p = random_cloud(rng, 40, dim)
    q = PointCloud.from_points(p.as_array()[:30] + rng.uniform(-0.05, 0.05, (30, dim)))
    eps = 0.25 * min_pairwise_distance(p)
    pair = epsilon_perturb(p, eps, seed=dim)
    big_pair = PerturbationPairing(source=_scaled(p, scale),
                                   target=_scaled(pair.target, scale),
                                   epsilon=eps * scale)
    checks = [
        (hausdorff_distance(p, q), hausdorff_distance(_scaled(p, scale), _scaled(q, scale))),
        (min_pairwise_distance(p), min_pairwise_distance(_scaled(p, scale))),
        (_max_displacement(pair), _max_displacement(big_pair)),
    ]
    for want, got in checks:
        assert math.isfinite(got) and got > 0.0
        assert got == pytest.approx(scale * want, rel=1e-15, abs=0.0)

    big = _scaled(p, scale)
    big_perturbed = epsilon_perturb(big, 0.25 * min_pairwise_distance(big), seed=5)
    perturbed = epsilon_perturb(p, eps, seed=5)
    assert same_triangulation(big_perturbed) == same_triangulation(perturbed)


def test_distance_blocks_stay_below_the_full_array():
    # n = m = 2000 in R^3: a full (n, m) float array alone is n*m*8 bytes,
    # the (n, m, 3) difference tensor three times that.
    rng = np.random.default_rng(2000)
    p = random_cloud(rng, 2000, dim=3)
    q = PointCloud.from_points(p.as_array() + rng.uniform(-1e-4, 1e-4, (2000, 3)))
    calls = [lambda: hausdorff_distance(p, q),
             lambda: min_pairwise_distance(p),
             lambda: PerturbationPairing(source=p, target=q, epsilon=2e-4)]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * 8
