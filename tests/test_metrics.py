import functools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from delrips import (FiltrationSpec, ShapeClass, add_noise, bottleneck,
                     build_delaunay_rips, compute_diagram, epsilon_perturb,
                     near_cocircular_quad, sample_shape)
from delrips import core, metrics
from delrips.errors import InfiniteDistance, ValidationError
from delrips.geometry import min_pairwise_distance
from naive_oracle import brute_bottleneck, matching_bottleneck

SQ3 = math.sqrt(3.0)


def h1(x):
    filt = build_delaunay_rips(near_cocircular_quad(x),
                               FiltrationSpec(max_hom_dim=1))
    return compute_diagram(filt).pairs(1)


def random_diagram(rng, max_points=5, with_essential=True):
    n = int(rng.integers(0, max_points + 1))
    pairs = []
    for _ in range(n):
        b = float(rng.uniform(0, 3))
        if with_essential and rng.random() < 0.15:
            pairs.append((b, math.inf))
        elif rng.random() < 0.2:
            pairs.append((b, b))  # zero persistence
        else:
            pairs.append((b, b + float(rng.uniform(0, 3))))
    return pairs


def matching_cost(x, y, m, diagonal):
    def dinf(a, b):
        d0 = abs(a[0] - b[0])
        return d0 if a[1] == b[1] else max(d0, abs(a[1] - b[1]))

    def diag(p):
        c = p[1] - p[0]
        return c if diagonal == "full" else c / 2.0

    costs = [dinf(x[i], y[j]) for i, j in m.matched]
    costs += [diag(x[i]) for i in m.to_diagonal_x]
    costs += [diag(y[j]) for j in m.to_diagonal_y]
    return max(costs, default=0.0)


def assert_valid_matching(x, y, value, m, diagonal="half"):
    used_x = [i for i, _ in m.matched] + list(m.to_diagonal_x)
    used_y = [j for _, j in m.matched] + list(m.to_diagonal_y)
    assert sorted(used_x) == list(range(len(x)))
    assert sorted(used_y) == list(range(len(y)))
    assert matching_cost(x, y, m, diagonal) == pytest.approx(value, abs=1e-12)


def test_identical_diagrams_zero():
    d = [(0.0, 1.0), (0.5, 2.0), (1.0, math.inf)]
    value, m = bottleneck(d, d)
    assert value == 0.0
    assert_valid_matching(d, d, value, m)


def test_single_point_vs_empty():
    value, m = bottleneck([(0.0, 2.0)], [])
    assert value == 1.0
    assert m.to_diagonal_x == (0,)
    value_full, _ = bottleneck([(0.0, 2.0)], [], diagonal="full")
    assert value_full == 2.0


def test_two_singletons():
    # Direct match costs 1; sending both to the diagonal costs max(1, 1.5).
    value, m = bottleneck([(0.0, 2.0)], [(0.0, 3.0)])
    assert value == 1.0
    assert m.matched == ((0, 0),)


def test_instability_h1_across_circle():
    value, _ = bottleneck(h1(-0.01), h1(0.01))
    assert value == pytest.approx((1.99 - SQ3) / 2)
    value_full, _ = bottleneck(h1(-0.01), h1(0.01), diagonal="full")
    assert value_full == pytest.approx((2 - 0.01) - SQ3, abs=1e-12)


def test_same_side_shift():
    # Deaths differ by 0.01 and the direct match beats the diagonal.
    value, m = bottleneck(h1(0.01), h1(0.02))
    assert value == pytest.approx(0.01)
    assert value == pytest.approx(brute_bottleneck(h1(0.01), h1(0.02)))


def test_essential_count_mismatch():
    with pytest.raises(InfiniteDistance):
        bottleneck([(0.0, math.inf)], [(0.0, 1.0)])


def test_essential_classes_matched_by_birth():
    x = [(0.0, math.inf), (5.0, math.inf)]
    y = [(4.5, math.inf), (1.0, math.inf)]
    value, m = bottleneck(x, y)
    assert value == 1.0  # sorted births: |0-1| and |5-4.5|
    assert_valid_matching(x, y, value, m)


def test_far_apart_essential_births_cost_inf_without_a_warning():
    # The births' difference overflows; under the warnings-as-errors filter a
    # numpy overflow warning would fail here.
    value, m = bottleneck([(-1e308, math.inf)], [(1e308, math.inf)])
    assert value == math.inf
    assert m.matched == ((0, 0),)


def test_unknown_convention():
    with pytest.raises(ValidationError):
        bottleneck([], [], diagonal="both")


def test_matches_brute_force_oracle(rng):
    for diagonal in ("half", "full"):
        for _ in range(60):
            x = random_diagram(rng)
            y = random_diagram(rng)
            try:
                value, m = bottleneck(x, y, diagonal=diagonal)
            except InfiniteDistance:
                assert brute_bottleneck(x, y, diagonal) == math.inf
                continue
            assert value == pytest.approx(
                brute_bottleneck(x, y, diagonal), abs=1e-12)
            assert_valid_matching(x, y, value, m, diagonal)


def test_symmetry_and_triangle_inequality(rng):
    for _ in range(25):
        x = random_diagram(rng, max_points=8, with_essential=False)
        y = random_diagram(rng, max_points=8, with_essential=False)
        z = random_diagram(rng, max_points=8, with_essential=False)
        dxy, _ = bottleneck(x, y)
        dyx, _ = bottleneck(y, x)
        assert dxy == pytest.approx(dyx, abs=1e-15)
        dxz, _ = bottleneck(x, z)
        dzy, _ = bottleneck(z, y)
        assert dxy <= dxz + dzy + 1e-12


@pytest.mark.parametrize("x, y", [
    ([(0.0, math.nan)], [(0.0, 1.0)]),
    ([(0.0, 1.0)], [(math.nan, 1.0)]),
    ([(2.0, 1.0)], []),
    ([(0.0, 1.0)], [(0.5, 0.25)]),
])
def test_rejects_nan_and_birth_after_death(x, y):
    with pytest.raises(ValidationError):
        bottleneck(x, y)


def test_long_augmenting_chain():
    # At c = 0.5 the greedy start pairs x_i with y_i, and the last x point
    # reaches only y_0, so covering it needs one 1500-step augmenting path.
    x = [(0, 10.5 + i) for i in range(1500)] + [(0, 9.5)]
    y = [(0, 10 + j) for j in range(1501)]
    value, m = bottleneck(x, y)
    assert value == 0.5
    assert_valid_matching(x, y, value, m)
    # Equal births take the interval cover, so give Hopcroft-Karp the same
    # graph directly: row i reaches columns i and i + 1, the last row only 0.
    adj = [[i, i + 1] for i in range(1500)] + [[0]]
    cover = metrics._cover(adj, 1501)
    assert sorted(cover) == list(range(1501))
    assert all(r in nbrs for r, nbrs in zip(cover, adj))


def h0_like_diagram(rng, k):
    # Deaths clustered near 1 (ties included), births 0, as Rips H0 gives.
    deaths = 1.0 + np.round(rng.normal(0.0, 1e-3, k), 6)
    return [(0.0, float(d)) for d in deaths]


def uniform_diagram(rng, k):
    births = rng.uniform(0.0, 2.0, k)
    return [(float(b), float(b + p)) for b, p in
            zip(births, rng.exponential(0.5, k))]


@pytest.mark.parametrize("diagonal", ["half", "full"])
@pytest.mark.parametrize("make", [h0_like_diagram, uniform_diagram])
def test_matches_matching_oracle(make, diagonal):
    rng = np.random.default_rng(7)
    for k in (20, 60, 150, 300):
        x = make(rng, k)
        y = make(rng, k + int(rng.integers(-5, 6)))
        value, m = bottleneck(x, y, diagonal=diagonal)
        assert value == matching_bottleneck(x, y, diagonal)
        assert_valid_matching(x, y, value, m, diagonal)
        assert m.cost == value


# float.hex() bottleneck values (H0, H1, H2) between the Delaunay-Rips
# diagrams (zero pairs dropped) of an n = 300 noisy sphere and its
# epsilon-perturbed copy, as computed by the recursive-matching search this
# module's search replaced; the values must not change by a bit.
GOLDEN_STABILITY = {
    1: {"half": ("0x1.f36b532195d40p-8", "0x1.ef844a4cdb5e0p-7",
                 "0x1.a1942ab98fc40p-4"),
        "full": ("0x1.f36b532195d40p-8", "0x1.ef844a4cdb5e0p-7",
                 "0x1.a1942ab98fc40p-4")},
    2: {"half": ("0x1.94a9e8a0ea120p-9", "0x1.473307cbf36a0p-6",
                 "0x1.b3c84c485eb40p-8"),
        "full": ("0x1.94a9e8a0ea120p-9", "0x1.473307cbf36a0p-6",
                 "0x1.b3c84c485eb40p-7")},
    3: {"half": ("0x1.e2d7b1688d040p-9", "0x1.817bf4b3f7880p-8",
                 "0x1.0895b01ac0e30p-4"),
        "full": ("0x1.e2d7b1688d040p-9", "0x1.817bf4b3f7880p-8",
                 "0x1.0895b01ac0e30p-4")},
}


@functools.lru_cache(maxsize=None)
def stability_diagrams(seed):
    """Delaunay-Rips diagrams (zero pairs dropped) of an n = 300 noisy sphere
    and its epsilon-perturbed copy, as the golden values were taken."""
    cloud = add_noise(sample_shape(ShapeClass(kind="sphere"), 300, seed),
                      0.1, seed + 1)
    pair = epsilon_perturb(cloud, 0.25 * min_pairwise_distance(cloud),
                           seed + 2)
    spec = FiltrationSpec(method="delaunay_rips", max_hom_dim=2)
    return tuple(compute_diagram(build_delaunay_rips(c, spec)).drop_zero()
                 for c in (pair.source, pair.target))


@pytest.mark.parametrize("seed", sorted(GOLDEN_STABILITY))
def test_stability_pair_golden_values(seed):
    source, target = stability_diagrams(seed)
    for diagonal, want in GOLDEN_STABILITY[seed].items():
        got = []
        for p in range(3):
            x, y = source.pairs(p), target.pairs(p)
            value, m = bottleneck(x, y, diagonal=diagonal)
            assert m.cost == value
            assert_valid_matching(x, y, value, m, diagonal)
            assert matching_cost(x, y, m, diagonal) == value
            got.append(value.hex())
        assert tuple(got) == want


@pytest.mark.parametrize("scale", [2.0 ** -664, 2.0 ** 532],
                         ids=["2^-664", "2^532"])
def test_extreme_scale_values_scale_exactly(scale):
    # A power of two scales every difference, half and maximum exactly, so
    # each value must be the unscaled one times the scale, bit for bit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in sorted(GOLDEN_STABILITY):
            source, target = stability_diagrams(seed)
            for p in range(3):
                x, y = source.pairs(p), target.pairs(p)
                sx = [(b * scale, d * scale) for b, d in x]
                sy = [(b * scale, d * scale) for b, d in y]
                for diagonal in ("half", "full"):
                    want = bottleneck(x, y, diagonal)[0] * scale
                    value, m = bottleneck(sx, sy, diagonal)
                    assert value.hex() == want.hex()
                    assert m.cost == value


def equal_births(rng, k):
    # One birth for every point, as in H0: each band is the adjacency.
    return [(0.5, 0.5 + float(d)) for d in np.round(rng.gamma(2.0, 0.5, k), 1)]


def spread_births(rng, k):
    births = np.round(rng.uniform(0.0, 2.0, k), 1)
    return [(float(b), float(b + p))
            for b, p in zip(births, np.round(rng.exponential(0.5, k), 1))]


def diagonal_and_duplicates(rng, k):
    pts = spread_births(rng, (k + 1) // 2)
    pts += [(b, b) for b, _ in pts[:k // 4]]  # on the diagonal
    pts += pts[:k - len(pts)]  # repeated points
    return pts[:k]


def nearby(rng, pairs):
    """A copy of ``pairs`` with each death, and each birth unless all births
    are equal, moved by 0 or +-0.1."""
    same = len({b for b, _ in pairs}) <= 1
    out = []
    for (b, d), (u, v) in zip(pairs, rng.integers(-1, 2, (len(pairs), 2))):
        b2 = b if same else round(b + 0.1 * u, 1)
        out.append((b2, max(b2, round(d + 0.1 * v, 1))))
    return out


FAMILIES = [equal_births, spread_births, diagonal_and_duplicates]


class SearchSpy:
    """Counts the search's calls into its steps."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        for name in ("_covers", "_interval_cover", "_near_births", "_rings"):
            monkeypatch.setattr(metrics, name,
                                self._counted(name, getattr(metrics, name)))

    def _counted(self, name, real):
        def counted(*args):
            self.calls[name] += 1
            return real(*args)
        return counted


def bracket(x, y, diagonal):
    """The search's first bracket: (lower bound, death-sorted matching
    cost), for diagrams without essential classes."""
    sx, sy = (metrics._Side(core._pair_array(d), diagonal) for d in (x, y))
    return (max(metrics._lower_bound(sx, sy), metrics._lower_bound(sy, sx)),
            metrics._sorted_matching(sx, sy)[0])


@pytest.mark.parametrize("budget, block", [(None, None), (0, 5)],
                         ids=["default", "bisect-to-the-end"])
def test_search_matches_oracles(budget, block, monkeypatch):
    # Budget 0 bisects the bracket until no float lies inside it; tiny
    # blocks split the birth filter and the candidate collection.
    if budget is not None:
        monkeypatch.setattr(metrics, "CANDIDATES_PER_POINT", budget)
        monkeypatch.setattr(core, "_BLOCK", block)
    spy = SearchSpy(monkeypatch)
    rng = np.random.default_rng(11)
    edges = Counter()
    for make in FAMILIES:
        for diagonal in ("half", "full"):
            for trial in range(40):
                small = trial % 2 == 0
                k = int(rng.integers(0, 7 if small else 90))
                x = make(rng, k)
                y = nearby(rng, x) if trial % 4 < 2 else make(
                    rng, max(0, k + int(rng.integers(-3, 4))))
                lo, hi = bracket(x, y, diagonal)
                spy.calls.clear()
                value, m = bottleneck(x, y, diagonal)
                want = (brute_bottleneck(x, y, diagonal) if small
                        else matching_bottleneck(x, y, diagonal))
                assert value == want
                assert m.cost == value
                assert_valid_matching(x, y, value, m, diagonal)
                assert matching_cost(x, y, m, diagonal) == value
                edges["sorted matching meets the lower bound" if hi <= lo
                      else "lower bound feasible" if value == lo
                      else "sorted matching optimal" if value == hi
                      else "inside the bracket"] += 1
                edges["bisected"] += spy.calls["_rings"] > 1
                for path in ("_interval_cover", "_near_births"):
                    edges[path] += spy.calls[path] > 0
    assert all(edges[e] for e in (
        "sorted matching meets the lower bound", "lower bound feasible",
        "sorted matching optimal", "inside the bracket", "bisected",
        "_interval_cover", "_near_births")), edges


@pytest.mark.parametrize("x, y", [
    ([], []),
    ([], [(0.0, 2.0), (1.0, 1.0)]),
    ([(0.0, math.inf), (2.0, math.inf)], [(0.5, math.inf), (1.0, math.inf)]),
    ([(0.0, math.inf), (1.0, 1.5)], [(3.0, math.inf)]),
    ([(1.0, 1.0), (2.0, 2.0)], [(0.5, 0.5)]),
    ([(0.0, 1.0)] * 3, [(0.0, 1.0)] * 2),
    ([(0.0, 1.0), (0.0, 1.0)], [(0.25, 1.0), (0.0, 1.5)]),
])
def test_edge_diagrams_match_brute_force(x, y):
    for diagonal in ("half", "full"):
        value, m = bottleneck(x, y, diagonal)
        assert value == brute_bottleneck(x, y, diagonal)
        assert m.cost == value
        assert_valid_matching(x, y, value, m, diagonal)


def test_band_is_exact_where_rounding_moves_the_bound():
    # Below 1 the differences 1 - key round to multiples of 2**-53, far
    # coarser than these keys' spacing, so searchsorted on the rounded
    # 1 - c lands many keys away from the band's edge; above 1, 1 + c rounds
    # half an ulp up and takes one key too many.
    keys = np.sort(np.concatenate((np.arange(200) * 2.0 ** -60,
                                   1.0 + np.arange(6) * 2.0 ** -52)))
    pad = np.concatenate(([-np.inf], keys, [np.inf]))
    q = np.array([1.0, 1.0 + 2.0 ** -52, 0.5])
    guessed_wrong = 0
    for c in (1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 1.5 * 2.0 ** -52, 0.5):
        start, stop = metrics._band(q, pad, c)
        for i in range(len(q)):
            want = np.flatnonzero(np.abs(q[i] - keys) <= c)
            assert list(range(start[i], stop[i])) == want.tolist()
        guessed_wrong += np.count_nonzero(
            (np.searchsorted(pad, q - c) - 1 != start)
            | (np.searchsorted(pad, q + c, "right") - 1 != stop))
    assert guessed_wrong


def test_interval_cover_agrees_with_hopcroft_karp(rng):
    for _ in range(300):
        n_rows, n_cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        start = np.sort(rng.integers(0, n_cols, n_rows))
        stop = np.minimum(np.maximum.accumulate(
            start + rng.integers(0, 4, n_rows)), n_cols)
        got = metrics._interval_cover(start, stop)
        want = metrics._cover([range(s, e) for s, e in zip(start, stop)],
                              n_cols)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(set(got)) == n_rows
            assert all(s <= col < e for s, col, e in zip(start, got, stop))


def test_bottleneck_peak_memory_below_dense_matrix():
    # The old search held the k x k distance matrix and its k*k candidates;
    # an eighth of the matrix's bare float payload (k*k*8/8 bytes) bounds
    # what the banded search allocates.
    k = 4000
    rng = np.random.default_rng(2024)
    deaths = rng.gamma(2.0, 0.05, k)
    moved = np.maximum(deaths + rng.uniform(-1e-4, 1e-4, k), 0.0)
    x = [(0.0, float(d)) for d in deaths]
    y = [(0.0, float(d)) for d in moved]
    tracemalloc.start()
    try:
        value, m = bottleneck(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.cost == value <= 1e-4
    assert peak < k * k * 8 // 8
