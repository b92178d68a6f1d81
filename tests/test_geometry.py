import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_facet_incidence, random_cloud
from families import (jittered_grid, jittered_grid_member, near_planar_member,
                      uniform)
import delrips.geometry
import delrips.predicates
from delrips import (PerturbationPairing, PointCloud, ShapeClass, add_noise,
                     delaunay, epsilon_perturb, hausdorff_distance,
                     near_cocircular_quad, same_triangulation, sample_shape)
from delrips.core import _BLOCK, _sweep_pairs, distance_blocks, distances
from delrips.errors import DimensionMismatch, EpsilonTooLarge, ValidationError
from delrips.geometry import min_pairwise_distance
from naive_oracle import blocked_min_distance, blocked_within, closure_of

_NEIGHBOURS = delrips.geometry._NEIGHBOURS
_WITNESS_CUT = 2 * _NEIGHBOURS  # the witness runs on larger clouds only


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
        assert np.array_equal(a.target.points, b.target.points)
        c = epsilon_perturb(pc, 0.1, seed=10)
        assert not np.array_equal(c.target.points, a.target.points)

    def test_eps_too_large(self):
        pc = PointCloud.from_points([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(EpsilonTooLarge):
            epsilon_perturb(pc, 0.5, seed=1)
        with pytest.raises(ValidationError):
            epsilon_perturb(pc, 0.0, seed=1)

    def test_rounded_displacement_stays_below_eps(self):
        # At eps = 1e-9 of the minimum distance the rounded target of pair
        # 20 moved 4.238373041485927e-12 >= eps = 4.238341044702158e-12, so
        # a valid eps raised ValidationError. Only that offset shrinks.
        cloud = add_noise(sample_shape(ShapeClass(kind="sphere"), 2000, 100),
                          0.1, 101)
        eps = 1e-9 * min_pairwise_distance(cloud)
        pair = epsilon_perturb(cloud, eps, seed=0)
        a, b = cloud.points, pair.target.points
        assert (distances(a, b) < eps).all()
        raw = a + delrips.geometry._ball_offsets(
            np.random.default_rng(0), len(a), 3, eps)
        changed = np.flatnonzero((b != raw).any(axis=1))
        assert changed.tolist() == np.flatnonzero(
            ~(distances(a, raw) < eps)).tolist()
        assert 20 in changed

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
        # Below the witness's size cut: the source's certificate decides.
        calls = _count_delaunay(monkeypatch)
        pair = _changed_pair(_WITNESS_CUT)
        assert not same_triangulation(pair)
        assert calls == [pair.source]

    def test_decided_pair_reuses_the_source_incidence(self, monkeypatch):
        pair = _changed_pair(_WITNESS_CUT)
        calls = count_facet_incidence(monkeypatch)
        assert not same_triangulation(pair)
        assert calls == [3]

    @pytest.mark.parametrize("n", [_WITNESS_CUT + 1, 80, 300])
    def test_witness_decided_pair_triangulates_neither_cloud(self, monkeypatch, n):
        # Above the cut a local witness decides: only neighbourhoods of
        # _NEIGHBOURS + 1 points are triangulated, each certified once.
        calls = _count_delaunay(monkeypatch)
        incidences = count_facet_incidence(monkeypatch)
        pair = _changed_pair(n)
        assert not same_triangulation(pair)
        assert calls and all(len(c) == _NEIGHBOURS + 1 for c in calls)
        assert incidences == [3] * len(calls)
        # The first neighbourhood is that of the most displaced point.
        v = np.argmax(distances(pair.source.points, pair.target.points))
        assert (calls[0].points == pair.source.points[v]).all(axis=1).any()

    @pytest.mark.parametrize("source_p2,target_p2,witness", [
        ((-1e-3, 1.001), (1e-3, 0.999), True),
        ((0.0, 1.0), (1e-3, 0.999), False),  # on the source circle
        ((-1e-3, 1.001), (0.0, 1.0), False),  # on the target circle
        ((-1e-3, 1.001), (-2e-3, 1.002), False)])  # outside in the target
    def test_witness_needs_both_balls_strict(self, monkeypatch, source_p2,
                                             target_p2, witness):
        # The only candidate is the triangle of points 0, 1 and 3 of the
        # square (0, 0), (1, 0), (0, 1), (1, 1); point 2 alone moves.
        # Triangle 013 is a witness only if point 2 is strictly outside its
        # source circle and strictly inside its target circle.
        far = np.indices((8, _WITNESS_CUT // 8)).reshape(2, -1).T + 10.0
        square = np.array([[0.0, 0.0], [1.0, 0.0], source_p2, [1.0, 1.0]])
        src = np.vstack([square, far])
        tgt = src.copy()
        tgt[2] = target_p2
        pair = PerturbationPairing(source=PointCloud.from_points(src),
                                   target=PointCloud.from_points(tgt),
                                   epsilon=0.01)

        class OneTriangle:
            def __init__(self, cloud):
                self.rows = [[np.flatnonzero((cloud.points == src[i]).all(axis=1))[0]
                              for i in (0, 1, 3)]]

            def faces(self, dim):
                return np.array(self.rows)

        monkeypatch.setattr(delrips.geometry, "delaunay", OneTriangle)
        assert _witness(pair) == witness

    def test_unchanged_pair_falls_back_to_both_clouds(self, monkeypatch):
        calls = _count_delaunay(monkeypatch)
        cloud = add_noise(sample_shape(ShapeClass(kind="sphere"), 200, 7), 0.1, 8)
        pair = epsilon_perturb(cloud, 1e-6 * min_pairwise_distance(cloud), seed=9)
        assert same_triangulation(pair)
        assert calls[-2:] == [pair.source, pair.target]
        assert all(len(c) == _NEIGHBOURS + 1 for c in calls[:-2])

    def test_matches_two_triangulations_above_the_witness_cut(self):
        pairs = _witness_corpus()
        got = [same_triangulation(pair) for pair in pairs]
        want = [_two_triangulations_agree(pair) for pair in pairs]
        assert got == want
        fired = [_witness(pair) for pair in pairs]
        assert not any(f and w for f, w in zip(fired, want))
        changed = want.count(False)
        assert 20 <= changed <= len(pairs) - 20
        assert sum(fired) >= changed // 2


def _count_delaunay(monkeypatch):
    """Patch ``geometry.delaunay`` and return the list of clouds it is
    called on."""
    calls = []
    real = delrips.geometry.delaunay
    monkeypatch.setattr(delrips.geometry, "delaunay",
                        lambda cloud: calls.append(cloud) or real(cloud))
    return calls


def _changed_pair(n):
    cloud = random_cloud(np.random.default_rng(5), n, dim=3)
    return epsilon_perturb(cloud, 0.25 * min_pairwise_distance(cloud), seed=3)


def _two_triangulations_agree(pair):
    dim = pair.source.dim
    return np.array_equal(delaunay(pair.source).faces(dim),
                          delaunay(pair.target).faces(dim))


def _witness(pair):
    return delrips.geometry._local_witness(pair)


def _witness_corpus():
    """Pairs above the witness's size cut: uniform clouds and noisy spheres
    at eps from 1e-9 to 0.45 of the minimum distance, jittered grids (points
    on the 1/8 grid moved by up to 1e-13, so nearly cospherical everywhere),
    mirror images, and integer grids paired with themselves."""
    rng = np.random.default_rng(2323)
    lo = _WITNESS_CUT + 1
    pairs = []
    for k in range(72):
        dim = 2 + k % 2
        n = int(rng.integers(lo, lo + 80))
        if k % 3 == 0:
            pts = jittered_grid(dim, n, k)
        elif dim == 3 and k % 3 == 1:
            pts = add_noise(sample_shape(ShapeClass(kind="sphere"), n, k),
                            0.1, k + 1).points
        else:
            pts = uniform(dim, n, 400 + k)
        cloud = PointCloud.from_points(pts)
        frac = (10.0 ** rng.uniform(-9.0, -2.0) if k % 4 < 2
                else rng.uniform(0.05, 0.45))
        pairs.append(epsilon_perturb(cloud, frac * min_pairwise_distance(cloud),
                                     seed=k))
    for k in range(6):  # mirror images: every orientation reverses
        dim = 2 + k % 2
        n = lo + 5 * k
        pts = np.column_stack([np.arange(n) + rng.uniform(0.0, 0.2, n),
                               rng.uniform(-0.1, 0.1, (n, dim - 1))])
        mirror = pts * np.array([1.0] * (dim - 1) + [-1.0])
        pairs.append(PerturbationPairing(source=PointCloud.from_points(pts),
                                         target=PointCloud.from_points(mirror),
                                         epsilon=0.25))
    for shape in [(9, 9), (12, 7), (5, 5, 5), (4, 4, 5)]:  # zero signs
        grid = PointCloud.from_points(np.indices(shape).reshape(len(shape), -1).T)
        pairs.append(PerturbationPairing(source=grid, target=grid, epsilon=0.5))
    return pairs


def _max_displacement(pair):
    a, b = pair.source.points, pair.target.points
    return float(distances(a, b).max())


def _scaled(cloud, scale):
    return PointCloud.from_points(cloud.points * scale)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scale", [2.0 ** -664, 2.0 ** 532])
def test_extreme_scales_scale_the_geometry(dim, scale):
    # Squared differences underflow near 2**-664 and overflow near 2**532;
    # the distance kernel sums those rows scaled into range, so every value
    # is finite and nonzero, and the unscaled value times the scale, bit for
    # bit.
    rng = np.random.default_rng(90 + dim)
    p = random_cloud(rng, 40, dim)
    q = PointCloud.from_points(p.points[:30] + rng.uniform(-0.05, 0.05, (30, dim)))
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
        assert got == scale * want

    big = _scaled(p, scale)
    big_perturbed = epsilon_perturb(big, 0.25 * min_pairwise_distance(big), seed=5)
    perturbed = epsilon_perturb(p, eps, seed=5)
    assert same_triangulation(big_perturbed) == same_triangulation(perturbed)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scale", [2.0 ** -664, 2.0 ** 532])
def test_same_triangulation_at_extreme_scales_above_the_witness_cut(
        monkeypatch, dim, scale):
    # The witness and the fallback certificates run on each cloud scaled by
    # its exact power of two, so every sign is the unscaled one.
    cloud = random_cloud(np.random.default_rng(70 + dim), 100, dim)
    m = min_pairwise_distance(cloud)
    exact = _count_exact(monkeypatch)
    got = []
    for frac in (1e-9, 0.25):
        pair = epsilon_perturb(cloud, frac * m, seed=dim)
        big = PerturbationPairing(source=_scaled(pair.source, scale),
                                  target=_scaled(pair.target, scale),
                                  epsilon=pair.epsilon * scale)
        same = same_triangulation(big)
        assert _witness(big) == (not same)
        # No test reaches the exact stage: the clouds are scaled, and no
        # simplex is tested against its own vertex.
        assert exact == []
        assert same == same_triangulation(pair) == _two_triangulations_agree(pair)
        assert _witness(pair) == (not same)
        got.append(same)
    assert got == [True, False]


def _count_exact(monkeypatch):
    """Patch ``predicates._exact_sign`` and return the list that records
    each call."""
    calls = []
    real = delrips.predicates._exact_sign
    monkeypatch.setattr(delrips.predicates, "_exact_sign",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_distance_blocks_stay_below_the_full_array():
    # n = m = 2000 in R^3: a full (n, m) float array alone is n*m*8 bytes,
    # the (n, m, 3) difference tensor three times that.
    rng = np.random.default_rng(2000)
    p = random_cloud(rng, 2000, dim=3)
    q = PointCloud.from_points(p.points + rng.uniform(-1e-4, 1e-4, (2000, 3)))
    # Along x every circle point is within any window of every other, so
    # a sweep along x would yield all n^2 pairs.
    circle = PointCloud.from_points(_circle_and_far_point(2000))
    moved = PointCloud.from_points(circle.points
                                   + rng.uniform(-1e-4, 1e-4, (2001, 3)))
    calls = [lambda: hausdorff_distance(p, q),
             lambda: min_pairwise_distance(p),
             lambda: PerturbationPairing(source=p, target=q, epsilon=2e-4),
             lambda: min_pairwise_distance(circle),
             lambda: PerturbationPairing(source=circle, target=moved, epsilon=2e-4)]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * 8


def _circle_and_far_point(n):
    """n points on the unit circle in the plane x = 0, and one at x = 100."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.column_stack([np.zeros(n), np.cos(t), np.sin(t)])
    return np.vstack([pts, [[100.0, 0.0, 0.0]]])


def _sweep_families():
    """Fixed clouds on which the sweep must match the full array: uniform
    clouds, integer grids (with repeated points) and jittered grids, points
    sharing a coordinate on one axis or two, the circle beside a far point,
    one and two points, and clouds near 2**-664, 2**532 and 1e150."""
    rng = np.random.default_rng(1808)
    clouds = [_circle_and_far_point(2000), near_planar_member(30)]
    for dim in (2, 3):
        clouds += [uniform(dim, 300, dim), uniform(dim, 1, 5), uniform(dim, 2, 6),
                   np.indices((7,) * dim).reshape(dim, -1).T.astype(float),
                   rng.integers(0, 4, (120, dim)).astype(float)]
        clouds += [jittered_grid_member(dim, seed) for seed in (0, 17, 49)]
        for shared in range(1, dim):
            flat = uniform(dim, 150, 10 + shared)
            flat[:, :shared] = [0.25, -0.5][:shared]
            clouds.append(flat)
        clouds += [uniform(dim, 100, 20 + dim) * scale
                   for scale in (2.0 ** -664, 2.0 ** 532, 1e150)]
    return clouds


def _pairs_below(a, b, r, pairs):
    """The pairs (i, j), among ``pairs`` of index arrays, whose distance
    is below r, as a set."""
    out = set()
    for i, j in pairs:
        close = distances(a[i], b[j]) < r
        out.update(zip(i[close].tolist(), j[close].tolist()))
    return out


def _check_sweep(a, b, r):
    """The sweep keeps every pair of the full array below r, yields no pair
    twice, and no chunk much larger than ``_BLOCK``."""
    chunks = list(_sweep_pairs(a, b, r))
    assert all(len(i) <= max(_BLOCK, len(b)) for i, _ in chunks)
    if chunks:
        keys = np.concatenate([i * len(b) + j for i, j in chunks])
        assert len(np.unique(keys)) == len(keys)
    full = [(np.repeat(np.arange(rows.start, rows.stop), len(b)),
             np.tile(np.arange(len(b)), rows.stop - rows.start))
            for rows, _ in distance_blocks(a, b)]
    assert _pairs_below(a, b, r, chunks) == _pairs_below(a, b, r, full)


def _check_min(pts):
    got = min_pairwise_distance(PointCloud.from_points(pts))
    assert got.hex() == blocked_min_distance(pts).hex()


def _pairing_accepted(a, b, eps):
    try:
        PerturbationPairing(source=PointCloud.from_points(a),
                            target=PointCloud.from_points(b), epsilon=eps)
    except ValidationError as exc:
        return str(exc)
    return True


def _check_pairing(a, b, eps):
    """The pairing check decides as the full array does, and the sweep at
    eps keeps every pair closer than eps."""
    moved = distances(a, b).tolist()
    far = [i for i, d in enumerate(moved) if not d < eps]
    if far:
        want = f"pair {far[0]} displaced by {moved[far[0]]} >= epsilon {eps}"
    elif blocked_within(a, b, eps) > len(a):
        want = "pairing is not mutually unique"
    else:
        want = True
    assert _pairing_accepted(a, b, eps) == want
    _check_sweep(a, b, eps)


@pytest.mark.parametrize("index", range(len(_sweep_families())))
def test_min_distance_and_pairing_match_the_full_array(index):
    pts = _sweep_families()[index]
    _check_min(pts)
    if len(pts) < 2:
        return
    m = blocked_min_distance(pts)
    rng = np.random.default_rng(index)
    # A copy of the cloud: its own pairs at 0 and, at eps equal to the
    # minimum distance, the closest pair just outside (the test is strict).
    for eps in (m, np.nextafter(m, math.inf)):
        if eps > 0:  # the integer grids repeat points
            _check_pairing(pts, pts, eps)
    for frac in (0.25, 0.49, 0.75, 2.0):
        eps = frac * m if m > 0 else 1e-3
        offsets = rng.uniform(-1.0, 1.0, pts.shape) * (eps / 2.0)
        _check_pairing(pts, pts + offsets, eps)


coordinates = st.one_of(st.integers(-3, 3).map(float),
                        st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(
           lambda dim: st.lists(st.lists(coordinates, min_size=dim, max_size=dim),
                                min_size=1, max_size=40)),
       st.sampled_from([1.0, 2.0 ** -664, 2.0 ** 532, 1e150]),
       st.floats(0.0, 3.0))
def test_sweep_matches_the_full_array_on_random_clouds(rows, scale, frac):
    pts = np.array(rows) * scale
    _check_min(pts)
    shifted = pts[::-1] + frac * scale
    r = float(distances(pts[0], shifted[-1]))
    for eps in (frac * scale, r, np.nextafter(r, math.inf)):
        if eps > 0:
            _check_pairing(pts, pts, eps)
            _check_sweep(pts, shifted, eps)


@pytest.mark.parametrize("make", [
    lambda n: add_noise(sample_shape(ShapeClass(kind="sphere"), n, 1), 0.1, 2),
    lambda n: PointCloud.from_points(_circle_and_far_point(n - 1)),
], ids=["noisy-sphere", "circle-and-far-point"])
def test_sweep_set_up_evaluates_few_distances(monkeypatch, make):
    # At n = 2000 the full array has n^2 entries; the sweep keeps the work
    # near linear. Along x the circle's points all share one window, so the
    # sweep must choose another axis there.
    n = 2000
    cloud = make(n)
    pair = epsilon_perturb(cloud, 0.25 * min_pairwise_distance(cloud), seed=3)
    evaluated = []
    real = delrips.geometry.distances

    def counted(a, b):
        out = real(a, b)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(delrips.geometry, "distances", counted)
    min_pairwise_distance(cloud)
    assert 0 < sum(evaluated) <= 20 * n
    evaluated.clear()
    PerturbationPairing(source=pair.source, target=pair.target,
                        epsilon=pair.epsilon)
    assert 0 < sum(evaluated) <= 20 * n
