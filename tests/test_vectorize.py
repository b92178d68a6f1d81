import math
import re

import numpy as np
import pytest

from delrips import (FiltrationSpec, ShapeClass, add_noise, build_delaunay_rips,
                     compute_diagram, core, delay_embed, fit_pi_grid,
                     near_cocircular_quad, persistence_image, persistence_stats,
                     persistent_entropy, sample_shape, stats_feature_vector)
from delrips.errors import AllEmpty, SeriesTooShort, ValidationError
from delrips.vectorize import PIGrid, stats_header
from naive_oracle import persistence_image_loop, quadrature_pi


class TestGrid:
    def test_single_point_collection_widened(self):
        grid = fit_pi_grid([[(0.0, 2.0)]])
        b0, b1 = grid.birth_range
        p0, p1 = grid.persistence_range
        assert b0 < 0.0 < b1 or (b0 < b1 and b0 <= 0.0 <= b1)
        assert p0 < 2.0 < p1
        assert b1 - b0 > 0 and p1 - p0 > 0

    def test_overflowing_persistence_is_a_degenerate_range(self):
        # 1e308 - (-1e308) is inf, as in Python floats, with no numpy
        # overflow warning (an error under the suite's warning filter).
        with pytest.raises(ValidationError, match=r"^persistence_range\[0\] must be a finite number"):
            fit_pi_grid([[(-1e308, 1e308)]])

    def test_min_max_ranges(self):
        grid = fit_pi_grid([[(0.0, 1.0)], [(1.0, 3.0)]])
        assert grid.birth_range == (0.0, 1.0)
        assert grid.persistence_range == (1.0, 2.0)

    def test_pooled_collection_shares_grid(self):
        diagrams = [[(0.0, 1.0)], [], [(0.5, 4.0)]]
        grid = fit_pi_grid(diagrams, resolution=(5, 5))
        assert grid.persistence_range == (1.0, 3.5)
        assert grid.size == 25

    def test_all_empty(self):
        with pytest.raises(AllEmpty):
            fit_pi_grid([[], [(0.0, math.inf)]])

    def test_default_sigma_half_pixel_height(self):
        grid = fit_pi_grid([[(0.0, 1.0)], [(1.0, 3.0)]], resolution=(4, 2))
        assert grid.sigma == pytest.approx(0.5 * (2.0 - 1.0) / 4)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            PIGrid((0, 1), (0, 1), (0, 2), 0.1)
        with pytest.raises(ValidationError):
            PIGrid((0, 0), (0, 1), (2, 2), 0.1)
        for sigma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="sigma"):
                PIGrid((0, 1), (0, 1), (2, 2), sigma)
        # The pair weights divide by the persistence range's upper end.
        with pytest.raises(ValidationError, match=r"^persistence_range\[1\] must be a finite number > 0"):
            PIGrid((0, 1), (-1.0, 0.0), (2, 2), 0.1)
        # ("a", 2) raised TypeError from fit_pi_grid's sigma guard, (2,) and
        # None unpacking errors.
        for resolution in ((1.5, 2), (2, 2.0), (True, 2), (2, "2"), ("a", 2),
                           (2,), (2, 2, 2), None, (0, 2)):
            with pytest.raises(ValidationError, match="^resolution"):
                PIGrid((0, 1), (0, 1), resolution, 0.1)
            with pytest.raises(ValidationError, match="^resolution"):
                fit_pi_grid([[(0.0, 1.0)]], resolution=resolution)
        assert PIGrid((0, 1), (-1.0, 1e-300), (np.int64(2), 1), 0.1).size == 2
        # The resolution is checked before the default sigma divides by it.
        with pytest.raises(ValidationError, match="resolution"):
            fit_pi_grid([[(0.0, 1.0)]], resolution=(0, 2))


class TestImage:
    def grid(self):
        return PIGrid(birth_range=(0.0, 1.0), persistence_range=(0.0, 2.0),
                      resolution=(2, 2), sigma=0.5)

    def test_empty_diagram_zero_vector(self):
        assert np.array_equal(persistence_image([], self.grid()),
                              np.zeros(4))

    def test_zero_persistence_only_zero_vector(self):
        img = persistence_image([(0.5, 0.5), (1.0, 1.0)], self.grid())
        assert np.array_equal(img, np.zeros(4))

    def test_matches_quadrature_oracle(self):
        pairs = [(0.0, 2.0)]
        img = persistence_image(pairs, self.grid())
        oracle = quadrature_pi(pairs, self.grid())
        assert np.max(np.abs(img - oracle)) < 1e-6

    def test_matches_quadrature_oracle_multi(self, rng):
        pairs = [(float(b), float(b + p))
                 for b, p in rng.uniform(0.1, 2.0, (4, 2))]
        grid = fit_pi_grid([pairs], resolution=(3, 4))
        img = persistence_image(pairs, grid)
        oracle = quadrature_pi(pairs, grid)
        assert np.max(np.abs(img - oracle)) < 1e-6

    def test_additive_under_union(self, rng):
        grid = self.grid()
        d1 = [(0.0, 1.0), (0.2, 1.7)]
        d2 = [(0.5, 0.9)]
        lhs = persistence_image(d1 + d2, grid)
        rhs = persistence_image(d1, grid) + persistence_image(d2, grid)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_nonnegative_and_scales_under_duplication(self):
        grid = self.grid()
        d = [(0.0, 1.5), (0.3, 0.8)]
        img = persistence_image(d, grid)
        assert (img >= 0).all()
        assert np.allclose(persistence_image(d + d, grid), 2 * img)

    def test_infinite_pairs_excluded(self):
        grid = self.grid()
        img = persistence_image([(0.0, 2.0), (0.0, math.inf)], grid)
        assert np.allclose(img, persistence_image([(0.0, 2.0)], grid))

    def test_resolution_sizes(self):
        for rows, cols in ((5, 1), (5, 5), (1, 1)):
            grid = PIGrid((0, 1), (0, 1), (rows, cols), 0.1)
            assert persistence_image([(0.2, 0.7)], grid).shape == (rows * cols,)


class TestStats:
    def test_two_equal_bars_entropy(self):
        assert persistent_entropy([1.0, 1.0]) == pytest.approx(math.log(2))

    def test_entropy_equal_bars_general(self):
        for k in (1, 2, 5, 17):
            assert persistent_entropy([3.7] * k) == pytest.approx(
                math.log(k), abs=1e-12)

    def test_entropy_maximal_at_equal_bars(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 8))
            base = [1.0] * k
            other = list(1.0 + rng.uniform(-0.5, 0.5, k))
            assert persistent_entropy(other) <= persistent_entropy(base) + 1e-12

    def test_entropy_log_base(self):
        assert persistent_entropy([1.0, 1.0], log_base=2.0) == pytest.approx(1.0)

    def test_single_pair_stats(self):
        vec = persistence_stats([(0.0, 2.0)])
        mean_block, pers_block = vec[:8], vec[8:]
        assert mean_block[0] == 1.0     # mean of means
        assert mean_block[1] == 0.0     # std
        assert tuple(mean_block[4:7]) == (1.0, 1.0, 1.0)  # percentiles
        assert mean_block[7] == 0.0     # singleton entropy
        assert pers_block[0] == 2.0
        assert pers_block[1] == 0.0
        assert pers_block[7] == 0.0

    def test_empty_diagram_nan(self):
        vec = persistence_stats([])
        assert vec.shape == (16,)
        assert np.isnan(vec).all()
        # Diagrams with only essential classes count as empty too.
        assert np.isnan(persistence_stats([(0.0, math.inf)])).all()

    def test_known_multiset_moments(self):
        vec = persistence_stats([(0.0, 1.0), (0.0, 3.0)])
        pers_block = vec[8:]
        assert pers_block[0] == 2.0                      # mean of {1,3}
        assert pers_block[1] == 1.0                      # population std
        assert pers_block[2] == 0.0                      # symmetric: no skew
        assert pers_block[3] == -2.0                     # two-point excess kurtosis
        assert tuple(pers_block[4:7]) == (1.5, 2.0, 2.5)  # linear percentiles


    @pytest.mark.parametrize("exponent", [-664, 532])
    def test_extreme_scales_scale_the_unit_statistics(self, exponent):
        # The moments used to overflow (RuntimeWarning at 1e150) or underflow
        # to the constant-sample values (1e-200) here.
        pairs = [(0.0, 1.0), (0.5, 3.0), (1.0, 1.5), (2.0, 4.0), (0.25, 0.5)]
        unit = persistence_stats(pairs)
        vec = persistence_stats([(math.ldexp(b, exponent),
                                  math.ldexp(d, exponent)) for b, d in pairs])
        for block in (0, 8):
            scaled = [block + i for i in (0, 1, 4, 5, 6)]  # mean, std, q's
            assert vec[scaled].tolist() == [math.ldexp(v, exponent)
                                            for v in unit[scaled].tolist()]
            # Skew and kurtosis are scale-free; entropy differs in rounding.
            assert vec[block + 2:block + 4].tolist() == unit[
                block + 2:block + 4].tolist()
            assert vec[block + 7] == pytest.approx(unit[block + 7], rel=1e-12)
        assert unit[3] != -3.0 and unit[1] > 0  # not a constant sample

    def test_moments_at_1e150_and_1e_200(self):
        for scale in (1e150, 1e-200):
            vec = persistence_stats([(0.0, scale), (0.0, 3 * scale)])
            assert vec[8:12].tolist() == pytest.approx(
                [2 * scale, scale, 0.0, -2.0], rel=1e-15)


class TestFeatureVector:
    def test_all_empty_48_nans(self):
        vec = stats_feature_vector([], [], [])
        assert vec.shape == (48,)
        assert np.isnan(vec).all()
        assert len(stats_header()) == 48

    def test_quad_composition(self):
        diag = compute_diagram(build_delaunay_rips(
            near_cocircular_quad(0.1), FiltrationSpec(max_hom_dim=1)))
        vec = stats_feature_vector(diag.pairs(0), diag.pairs(1), ())
        assert vec.shape == (48,)
        h0 = [(b, d) for b, d in diag.pairs(0) if math.isfinite(d)]
        means = [(b + d) / 2 for b, d in h0]
        assert vec[0] == pytest.approx(np.mean(means))
        # H1 block: pairs (sqrt3, 1.9) and (1.9, 1.9).
        assert vec[16 + 8] == pytest.approx(np.mean([1.9 - math.sqrt(3), 0.0]))
        assert np.isnan(vec[32:]).all()


class TestDelayEmbed:
    def test_documented_example(self):
        cloud = delay_embed(list(range(15)), embed_dim=3, tau=5, stride=1)
        assert len(cloud) == 5
        assert cloud[0].tolist() == [0.0, 5.0, 10.0]
        assert cloud[4].tolist() == [4.0, 9.0, 14.0]

    def test_constant_series(self):
        cloud = delay_embed([2.0] * 9, embed_dim=2, tau=3)
        assert all(p == [2.0, 2.0] for p in cloud.points.tolist())

    def test_small_example(self):
        cloud = delay_embed([1, 2, 3], embed_dim=2, tau=1)
        assert cloud.points.tolist() == [[1.0, 2.0], [2.0, 3.0]]

    def test_count_formula(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 4))
            tau = int(rng.integers(1, 6))
            stride = int(rng.integers(1, 5))
            length = int(rng.integers((m - 1) * tau + 1, 60))
            cloud = delay_embed(list(range(length)), m, tau, stride)
            expected = (length - (m - 1) * tau - 1) // stride + 1
            assert len(cloud) == expected

    @pytest.mark.parametrize("tau, stride", [
        (1.5, 1), (1, 1.5), (True, 1), (1, False), (0, 1), (1, 0), ("2", 1)])
    def test_tau_and_stride_are_integers_at_least_1(self, tau, stride):
        # 1.5 raised TypeError from slicing.
        with pytest.raises(ValidationError, match="must be an integer >= 1"):
            delay_embed(range(20), 3, tau, stride)
        assert len(delay_embed(range(20), 3, np.int64(2), np.int64(3))) == 6

    @pytest.mark.parametrize("embed_dim", [2.0, 3.0, True, "2", 4])
    def test_embed_dim_is_the_integer_2_or_3(self, embed_dim):
        # 2.0 compared equal to 2 and then raised TypeError from slicing.
        with pytest.raises(ValidationError, match="embed_dim must be 2 or 3"):
            delay_embed(range(20), embed_dim, 1)

    def test_series_values_must_be_numbers(self):
        # float("a") raised a bare ValueError.
        with pytest.raises(ValidationError, match="not a number"):
            delay_embed(["a", "b", "c"], 2, 1)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            delay_embed([1, 2, 3], embed_dim=3, tau=5)
        with pytest.raises(ValidationError):
            delay_embed(list(range(30)), embed_dim=4, tau=1)


def random_pairs(seed):
    """Pairs with some zero persistences, one essential class, and a grid
    resolution, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 300))
    births = rng.uniform(-1.0, 2.0, n)
    pers = rng.exponential(0.5, n) * (rng.random(n) > 0.2)  # some zero pairs
    pairs = list(zip(births.tolist(), (births + pers).tolist()))
    pairs += [(0.0, math.inf)] + [(1.0, 2.5)]
    return pairs, (int(rng.integers(1, 25)), int(rng.integers(1, 25)))


def sphere_pairs(dim):
    """The dimension-``dim`` pairs of a 300-point noisy sphere."""
    cloud = add_noise(sample_shape(ShapeClass(kind="sphere"), 300, 5), 0.1, 6)
    spec = FiltrationSpec(method="delaunay_rips", max_hom_dim=2)
    return compute_diagram(build_delaunay_rips(cloud, spec)).pairs(dim)


# Pairs per ``core._blocks`` chunk on a 20 x 20 grid.
CHUNK = core._BLOCK // 400
STEPS = np.linspace(0.01, 3.0, 2 * CHUNK + 5).tolist()
IMAGE_CASES = {
    **{str(seed): lambda seed=seed: random_pairs(seed) for seed in range(6)},
    "one_pixel": lambda: (random_pairs(0)[0], (1, 1)),
    "equal_births": lambda: ([(0.25, 0.25 + p) for p in STEPS], (20, 20)),
    "signed_zeros": lambda: (
        [(b, b + p) for b in (0.0, -0.0) for p in (0.0, -0.0, 0.5, 1.0)]
        + [(-1.0, -0.0), (-1.0, 0.0), (-0.5, 0.0), (-0.5, -0.0)], (20, 20)),
    **{f"chunk{k:+d}": lambda k=k: ([(p, 2.0 * p) for p in STEPS[:CHUNK + k]],
                                    (20, 20))
       for k in (-1, 0, 1)},
    "zero_persistence_only": lambda: (
        [(0.5, 0.5), (1.0, 1.0), (-0.0, 0.0)], (20, 20)),
    **{f"sphere_h{dim}": lambda dim=dim: (sphere_pairs(dim), (20, 20))
       for dim in range(3)},
}


@pytest.mark.parametrize("case", IMAGE_CASES.values(), ids=IMAGE_CASES.keys())
def test_persistence_image_bit_identical_to_pair_loop(case):
    pairs, resolution = case()
    grid = fit_pi_grid([pairs], resolution)
    assert (persistence_image(pairs, grid).tobytes()
            == persistence_image_loop(pairs, grid).tobytes())


@pytest.mark.parametrize("consume", [
    lambda: persistence_stats([(-1e308, 1e308), (0, 1)]),
    lambda: persistence_image([(-1e308, 1e308)],
                              PIGrid((0.0, 1.0), (0.0, 1.0), (2, 2), 0.5)),
])
def test_overflowing_persistence_is_rejected(consume):
    # The persistence 1e308 - (-1e308) used to overflow with a numpy
    # RuntimeWarning (an error under the suite's warning filter).
    with pytest.raises(ValidationError, match=re.escape(
            "persistence of pair (-1e+308, 1e+308) overflows")):
        consume()


def test_stats_of_a_pair_near_the_float_limit():
    # The pair mean (birth + death) / 2 overflowed at 1.35e308 with a numpy
    # RuntimeWarning (an error under the suite's warning filter).
    vec = persistence_stats([(1e308, 1.7e308)])
    assert vec[[0, 4, 5, 6]].tolist() == [1.35e308] * 4
    assert vec[8] == 1.7e308 - 1e308


@pytest.mark.parametrize("pairs", [
    [(1e308, 1.7e308)] * 2,
    [(-1.7e308, -1.6e308), (1.6e308, 1.7e308), (1e308, 1.7e308)]])
def test_stats_whose_sums_overflow(pairs):
    # The sum behind a mean, a centred value or a quartile's interpolation
    # overflowed (inf or NaN, with a RuntimeWarning raised inside numpy).
    # Each statistic is that of the values times 2**-1024, scaled back.
    got = persistence_stats(pairs)
    small = persistence_stats([(math.ldexp(b, -1024), math.ldexp(d, -1024))
                               for b, d in pairs])
    units, free = [0, 1, 4, 5, 6, 8, 9, 12, 13, 14], [2, 3, 10, 11]
    assert got[units].tolist() == np.ldexp(small[units], 1024).tolist()
    assert got[free].tolist() == small[free].tolist()
    assert got[[7, 15]] == pytest.approx(small[[7, 15]], rel=1e-12)


def test_entropy_of_values_whose_sum_overflows():
    # The sum overflowed to inf, so every term was 0 * -inf: NaN.
    assert persistent_entropy([1e308, 1.7e308]) == pytest.approx(
        persistent_entropy([1.0, 1.7]), rel=1e-12)


def test_image_of_a_pair_near_the_float_limit():
    # The erf argument (edge - birth) / s overflowed to -inf with a numpy
    # RuntimeWarning; erf(-inf) is -1, so the pixels get no mass.
    img = persistence_image([(-1.7e308, -1e308)],
                            PIGrid((0.0, 1.0), (0.0, 1.0), (2, 2), 0.1))
    assert img.tolist() == [0.0] * 4
