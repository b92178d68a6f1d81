import math

import numpy as np
import pytest

from delrips import (FiltrationSpec, ShapeClass, add_noise, bottleneck,
                     build_delaunay_rips, compute_diagram, epsilon_perturb,
                     near_cocircular_quad, sample_shape)
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


@pytest.mark.parametrize("seed", sorted(GOLDEN_STABILITY))
def test_stability_pair_golden_values(seed):
    cloud = add_noise(sample_shape(ShapeClass(kind="sphere"), 300, seed),
                      0.1, seed + 1)
    pair = epsilon_perturb(cloud, 0.25 * min_pairwise_distance(cloud),
                           seed + 2)
    spec = FiltrationSpec(method="delaunay_rips", max_hom_dim=2)
    source, target = (compute_diagram(build_delaunay_rips(c, spec)).drop_zero()
                      for c in (pair.source, pair.target))
    for diagonal, want in GOLDEN_STABILITY[seed].items():
        got = tuple(bottleneck(source.pairs(p), target.pairs(p),
                               diagonal=diagonal)[0].hex() for p in range(3))
        assert got == want
