import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from delrips import predicates
from delrips.predicates import (circumdiameters, collinear3d, diametral_signs,
                                incircle, inball_signs, insphere, orient2d,
                                orient3d, orient_signs)
from naive_oracle import (_dot, _integer_points, exact_circumball,
                          exact_in_diametral_ball, exact_incircle,
                          exact_insphere, exact_orient2d, exact_orient3d)


def test_orient2d_basic_signs():
    assert orient2d((0, 0), (1, 0), (0, 1)) == 1
    assert orient2d((0, 0), (0, 1), (1, 0)) == -1
    assert orient2d((0, 0), (1, 1), (2, 2)) == 0


def test_orient2d_near_degenerate_exact():
    a, b = (0.0, 0.0), (1.0, 1.0)
    assert orient2d(a, b, (0.5, 0.5)) == 0
    # One ulp off the diagonal must be resolved exactly.
    up = math.nextafter(0.5, 1.0)
    dn = math.nextafter(0.5, 0.0)
    assert orient2d(a, b, (0.5, up)) == 1
    assert orient2d(a, b, (0.5, dn)) == -1


def test_orient2d_extreme_scales():
    big = 1e150
    assert orient2d((0, 0), (big, 0), (0, big)) == 1
    tiny = 1e-200
    assert orient2d((0, 0), (tiny, 0), (0, tiny)) == 1
    assert orient2d((0, 0), (tiny, tiny), (2 * tiny, 2 * tiny)) == 0


def test_incircle_signs():
    tri = ((0, 0), (1, 0), (0, 1))  # counterclockwise
    assert incircle(*tri, (0.3, 0.3)) == 1
    assert incircle(*tri, (2.0, 2.0)) == -1
    assert incircle(*tri, (1.0, 1.0)) == 0  # cocircular with the square
    # Clockwise order flips the sign.
    assert incircle((0, 0), (0, 1), (1, 0), (0.3, 0.3)) == -1


def test_incircle_cocircular_ties_exact():
    square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
    assert incircle(*square, (0.0, 1.0)) == 0
    eps = math.nextafter(0.0, 1.0)
    assert incircle(*square, (eps, 1.0)) == 1  # nudged inside
    assert incircle(*square, (-eps, 1.0)) == -1


def test_orient3d_signs():
    a, b, c = (0, 0, 0), (1, 0, 0), (0, 1, 0)
    assert orient3d(a, b, c, (0.1, 0.1, 0.0)) == 0
    up = orient3d(a, b, c, (0, 0, 1))
    dn = orient3d(a, b, c, (0, 0, -1))
    assert up in (-1, 1) and dn == -up


def test_insphere_inside_outside_relative_sign():
    tet = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    o = orient3d(*tet)
    centroid = (0.25, 0.25, 0.25)
    assert insphere(*tet, centroid) * o > 0
    assert insphere(*tet, (10, 10, 10)) * o < 0
    # Swapping two vertices flips both signs; the product is invariant.
    swapped = (tet[1], tet[0], tet[2], tet[3])
    assert insphere(*swapped, centroid) * orient3d(*swapped) > 0


def test_insphere_cospherical_exact():
    # Unit cube corners are cospherical around (.5,.5,.5).
    a, b, c, d = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert insphere(a, b, c, d, (1, 1, 0)) == 0
    assert insphere(a, b, c, d, (1, 1, 1)) == 0
    assert insphere(a, b, c, d, (0.5, 0.5, 0.5)) * orient3d(a, b, c, d) > 0


def test_collinear3d():
    assert collinear3d((0, 0, 0), (1, 1, 1), (2, 2, 2))
    assert collinear3d((0, 0, 0), (1, 1, 1), (0.5, 0.5, 0.5))
    assert not collinear3d((0, 0, 0), (1, 1, 1), (1, 1, 1.0000000000000002))


@pytest.mark.parametrize("dim", [2, 3])
def test_batch_signs_match_scalar_predicates(dim, monkeypatch):
    # Generic, exactly cospherical, one-ulp-off, tiny, huge and collinear
    # cases: the batch signs must equal the scalar predicates' exact signs, and the
    # well-conditioned generic tests must never reach exact arithmetic.
    rng = np.random.default_rng(7 + dim)
    inball = incircle if dim == 2 else insphere
    orient = orient2d if dim == 2 else orient3d
    simplices, queries = [], []
    for k in range(300):
        pts = rng.uniform(-1.0, 1.0, (dim + 2, dim))
        kind = k % 5
        if kind in (1, 2):  # +-unit vectors: on (or one ulp off) a sphere
            pts = np.vstack([np.eye(dim), -np.eye(dim)])[:dim + 2]
            if kind == 2:
                pts[-1, -1] = math.nextafter(pts[-1, -1], -2.0)
        elif kind == 3:
            pts *= 2.0 ** -664
        elif kind == 4:
            pts *= 1e150
        simplices.append(pts[:-1])
        queries.append(pts[-1])
    line = np.outer(np.arange(dim + 2.0), np.ones(dim))  # flat: every sign 0
    simplices.append(line[:-1])
    queries.append(line[-1])
    want_in = [inball(*t.tolist(), q.tolist()) for t, q in zip(simplices, queries)]
    want_or = [orient(*t.tolist()) for t in simplices]
    assert inball_signs(np.array(simplices), np.array(queries)).tolist() == want_in
    assert orient_signs(np.array(simplices)).tolist() == want_or
    assert 0 in want_in and 0 in want_or

    calls = []
    real = predicates._exact_sign
    monkeypatch.setattr(predicates, "_exact_sign",
                        lambda *a: calls.append(1) or real(*a))
    generic = np.array(simplices[:300:5])
    inball_signs(generic, np.array(queries[:300:5]))
    orient_signs(generic)
    assert not calls




def _near_degenerate_cases(dim, count, seed):
    """``count`` tuples of dim + 2 points, cycling through grid points with
    0 or 1e-13 jitter, +-unit vectors exactly on the unit sphere or with one
    coordinate one ulp off it, a mix of 1e-300 and 1e300 coordinates, and
    Python ints; the float families are scaled by 1, 2**-664 or 1e150."""
    rng = np.random.default_rng(seed)
    units = np.vstack([np.eye(dim), -np.eye(dim)])
    scales = (1.0, 2.0 ** -664, 1e150)
    cases = []
    for k in range(count):
        kind = k % 6
        if kind in (0, 1):
            pts = rng.integers(0, 4, (dim + 2, dim)) / 4.0
            if kind == 1:
                pts += rng.uniform(-1e-13, 1e-13, pts.shape)
        elif kind in (2, 3):
            pts = units[rng.permutation(2 * dim)[:dim + 2]]
            if kind == 3:
                i, j = rng.integers(0, dim + 2), rng.integers(0, dim)
                pts[i, j] = math.nextafter(pts[i, j], rng.choice([-2.0, 2.0]))
        elif kind == 4:
            pts = (rng.integers(-1, 2, (dim + 2, dim))
                   * rng.choice([1e-300, 1e300], (dim + 2, dim)))
        else:
            cases.append([tuple(int(x) for x in p)
                          for p in rng.integers(-2, 3, (dim + 2, dim))])
            continue
        if kind < 4:
            pts = pts * scales[(k // 6) % 3]
        cases.append([tuple(p) for p in pts.tolist()])
    return cases


@pytest.mark.parametrize("dim", [2, 3])
def test_signs_agree_with_rational_oracle(dim):
    # Near-degenerate inputs, where the exact stage decides: the scalar
    # predicates, the numpy batch and the cofactor Fraction oracle must all
    # give the same sign.
    if dim == 2:
        orient, inball = orient2d, incircle
        orient_oracle, inball_oracle = exact_orient2d, exact_incircle
    else:
        orient, inball = orient3d, insphere
        orient_oracle, inball_oracle = exact_orient3d, exact_insphere
    cases = _near_degenerate_cases(dim, 3000, seed=40 + dim)
    want_or = [orient_oracle(*c[:-1]) for c in cases]
    want_in = [inball_oracle(*c) for c in cases]
    assert [orient(*c[:-1]) for c in cases] == want_or
    assert [inball(*c) for c in cases] == want_in
    pts = np.array(cases, dtype=float)
    assert orient_signs(pts[:, :-1]).tolist() == want_or
    assert inball_signs(pts[:, :-1], pts[:, -1]).tolist() == want_in
    for want in (want_or, want_in):
        assert {-1, 0, 1} <= set(want)


def _sphere25(dim):
    """The integer points of the sphere |p| = 5 about the origin."""
    return [p for p in itertools.product(range(-5, 6), repeat=dim)
            if sum(x * x for x in p) == 25]


def _diametral_cases(k, dim, seed):
    """(face, query) pairs with k + 1 face points in R^dim: the
    near-degenerate cases above, then exact ties and their one-ulp
    neighbours. Each tie face has the sphere |p| = 5 as its smallest
    circumball: an edge p, -p through the center (Thales), or a right
    triangle p, -p, q. Its queries are points of that sphere (sign 0), each
    also moved one ulp along a random coordinate. Last, random faces with
    a query on their sphere up to the rounding of its float center, where
    the float formula's sign is often wrong."""
    rng = np.random.default_rng(seed)
    cases = [(c[:k + 1], c[-1]) for c in _near_degenerate_cases(dim, 600, seed)]
    if k == 2:  # drop collinear triangles: they have no circumball
        cases = [(f, q) for f, q in cases
                 if any(exact_orient2d(*[(p[i], p[j]) for p in f]) != 0
                        for i, j in ((0, 1), (0, 2), (1, 2)))]
    sphere = _sphere25(dim)
    for _ in range(150):
        p, r, q = (sphere[i] for i in rng.choice(len(sphere), 3))
        if k == 2 and r in (p, tuple(-x for x in p)):
            continue
        face = [p, tuple(-x for x in p), r][:k + 1]
        cases.append((face, q))
        moved = list(map(float, q))
        j = int(rng.integers(dim))
        moved[j] = math.nextafter(moved[j], rng.choice([-10.0, 10.0]))
        cases.append((face, tuple(moved)))
    for _ in range(150):
        face = rng.uniform(-1.0, 1.0, (k + 1, dim))
        u = face[1] - face[0]
        center = face[0] + u / 2
        if k == 2:
            v = face[2] - face[0]
            gram = np.array([[u @ u, u @ v], [u @ v, v @ v]])
            s, t = np.linalg.solve(2 * gram, [u @ u, v @ v])
            center = face[0] + s * u + t * v
        direction = rng.normal(size=dim)
        radius = np.linalg.norm(face[0] - center)
        q = center + radius * direction / np.linalg.norm(direction)
        cases.append(([tuple(p) for p in face.tolist()], tuple(q.tolist())))
    return cases


@pytest.mark.parametrize("k,dim", [(1, 2), (1, 3), (2, 3)])
def test_diametral_signs_agree_with_rational_oracle(k, dim, monkeypatch):
    # Near-degenerate cases, exact ties and ties one ulp off, at unit scale,
    # at 2**-664 and 2**532, and at the two binary scales on either side of
    # the float filter's underflow guard and of its overflow threshold,
    # where the exact stage takes over. Generic cases stay on the filter.
    cases = _diametral_cases(k, dim, seed=70 + 10 * k + dim)
    want = [exact_in_diametral_ball(f, q) for f, q in cases]
    assert {-1, 0, 1} <= set(want)
    pts = np.array([list(f) + [q] for f, q in cases], dtype=float)
    want = np.array(want)
    degree = 2 if k == 1 else 6
    low = math.ceil(math.log2(predicates._UNDERFLOW_GUARD) / degree)
    high = 1024 // degree
    for p in (0, -664, 532, low - 1, low, high - 1, high):
        with np.errstate(over="ignore"):
            scaled = np.ldexp(pts, p)
        kept = (np.ldexp(scaled, -p) == pts).all(axis=(1, 2))  # signs kept
        assert kept.sum() >= 400
        got = diametral_signs(scaled[kept, :-1], scaled[kept, -1])
        assert (got == want[kept]).all(), p

    calls = []
    real = predicates._exact_sign
    monkeypatch.setattr(predicates, "_exact_sign",
                        lambda *a: calls.append(1) or real(*a))
    rng = np.random.default_rng(dim)
    diametral_signs(rng.uniform(-1.0, 1.0, (200, k + 1, dim)),
                    rng.uniform(-1.0, 1.0, (200, dim)))
    assert not calls


@pytest.mark.parametrize("k,dim", [(2, 2), (2, 3), (3, 3)])
def test_circumdiameters_match_exact_values(k, dim):
    # Random simplices, and every third one nearly flat (its last vertex
    # 1e-13, 1e-9 or 1e-5 off the others' hyperplane): the float closed form
    # where it is certified, exact integers rounded once where it is not;
    # every value within 1e-12 (relative) of the exact diameter.
    rng = np.random.default_rng(90 + 10 * k + dim)
    simplices = rng.uniform(-1.0, 1.0, (300, k + 1, dim))
    flat = simplices[::3]  # a view
    flat[:, -1] = flat[:, :-1].mean(axis=1)
    flat[:, -1, -1] += rng.choice([1e-13, 1e-9, 1e-5], len(flat))
    ints, shift = _integer_points(simplices.reshape(-1, dim).tolist())
    got = circumdiameters(simplices)
    for i, simplex in enumerate(np.array(ints, dtype=object).reshape(
            -1, k + 1, dim).tolist()):
        m, g = exact_circumball([tuple(p) for p in simplex])
        want = Fraction(_dot(m, m), g * g << 2 * shift)
        assert abs(float(Fraction(got[i]) ** 2 / want) - 1.0) <= 2e-12


def _near_degenerate_tuples(base, rng, rounds):
    """Orient and in-ball tuples of points in the bounding box of ``base``,
    built from differences of its points, so that a 1e-9-spread cloud near
    1 works too. Each round adds an orient tuple whose last point is one ulp
    off the others' plane (line in R^2), one whose last point completes a
    parallelogram (on the plane, up to the rounding of one sum), an in-ball
    tuple whose last point is one ulp off the others' sphere, and two tuples
    of corners of an axis-parallel box, exactly cospherical, with the last
    corner as it is and one ulp off."""
    dim = base.shape[1]
    lo, hi = base.min(axis=0), base.max(axis=0)
    corner_of = np.vstack([np.zeros(dim), np.eye(dim), np.ones(dim)]) > 0

    def nudged(p):
        p = p.copy()
        j = rng.integers(dim)
        p[j] = np.nextafter(p[j], rng.choice([-np.inf, np.inf]))
        return p

    orients, balls = [], []
    while len(balls) < 3 * rounds:
        pts = base[rng.choice(len(base), dim + 1, replace=False)]
        a, rows = pts[0], pts[1:] - pts[0]
        flat = a + rng.dirichlet(np.ones(dim))[1:] @ rows[:dim - 1]
        parallelogram = pts[dim - 1] + rows[0]
        offset = np.linalg.solve(2.0 * rows, (rows * rows).sum(axis=1))
        direction = rng.normal(size=dim)
        on_ball = (a + offset + np.linalg.norm(offset) * direction
                   / np.linalg.norm(direction))
        made = np.array([parallelogram, on_ball])
        if not ((lo < made) & (made < hi)).all():
            continue
        box = np.where(corner_of, pts[1], pts[0])
        orients += [np.vstack([pts[:dim], nudged(flat)]),
                    np.vstack([pts[:dim], parallelogram])]
        balls += [np.vstack([pts, nudged(on_ball)]), box,
                  np.vstack([box[:-1], nudged(box[-1])])]
    return np.array(orients), np.array(balls)


def _tier_clouds(dim):
    """(name, cloud, orient tuples, in-ball tuples): 200 uniform points of
    [-1, 1]^dim with their near-degenerate tuples' points, at 2**-664, 1,
    2**-200 (the orient tier on, the in-ball tier off), 4 (extents above 2:
    both tiers off) and 2**532, and at 1 for a cloud of spread 1e-9 about
    (1, ..., 1)."""
    rng = np.random.default_rng(500 + dim)
    out = []
    for name, base in (("unit", rng.uniform(-1.0, 1.0, (200, dim))),
                       ("near-1", 1.0 + 1e-9 * rng.uniform(-1.0, 1.0, (200, dim)))):
        orients, balls = _near_degenerate_tuples(base, rng, 60)
        cloud = np.vstack([base, orients.reshape(-1, dim), balls.reshape(-1, dim)])
        for p in ((0, -664, -200, 2, 532) if name == "unit" else (0,)):
            out.append((f"{name}*2^{p}", np.ldexp(cloud, p),
                        np.ldexp(orients, p), np.ldexp(balls, p)))
    return out


def _plain_tests(dim):
    """(orient, inball) as (terms, A-bound) pairs."""
    if dim == 2:
        return ((predicates._orient2d_terms, predicates._O2D_BOUND),
                (predicates._incircle_terms, predicates._ICC_BOUND))
    return ((predicates._orient3d_terms, predicates._O3D_BOUND),
            (predicates._insphere_terms, predicates._ISP_BOUND))


@pytest.mark.parametrize("dim", [2, 3])
def test_static_bound_dominates_every_tuple(dim):
    # Where the tier is on, the cloud's bound is at least the A-bound times
    # the float permanent of every tuple of bounding-box corners and of 10^4
    # random tuples of its points. At 2**-664 and 2**532 the bound underflows
    # or overflows, and at 4 the extents exceed 2: the tier is off.
    rng = np.random.default_rng(dim)
    on = set()
    for name, cloud, _, _ in _tier_clouds(dim):
        statics = predicates._static_bounds(cloud.tolist())
        if name.endswith(("2^-664", "2^2", "2^532")):
            assert statics == (None, None), name
        corners = np.array(list(itertools.product(*zip(cloud.min(axis=0),
                                                        cloud.max(axis=0)))))
        for k, ((terms, bound), static) in enumerate(zip(_plain_tests(dim),
                                                         statics)):
            if static is None:
                continue
            on.add((name, k))
            size = dim + 1 + k
            tuples = np.concatenate([
                corners[np.array(list(itertools.product(range(len(corners)),
                                                        repeat=size)))],
                cloud[rng.integers(0, len(cloud), (10_000, size))]])
            _, permanent = terms(*tuples.transpose(1, 2, 0))
            assert (bound * permanent <= static).all(), (name, k)
    assert {("unit*2^0", 1), ("near-1*2^0", 1), ("unit*2^-200", 0)} <= on
    assert ("unit*2^-200", 1) not in on


def _cloud_tests(points):
    """The cloud predicates of ``points`` as tests on tuples of its points:
    orient, and the in-ball test from the tuple's last point as the query."""
    orient, inball_from = predicates._cloud_predicates(points)
    index = {p: i for i, p in enumerate(points)}

    def inball(*tuple_):
        *vs, q = [index[p] for p in tuple_]
        return inball_from(q)(vs)
    return orient, inball


def _counting_filter(monkeypatch):
    """A list that grows by one on every call of the permanent filter."""
    filtered = []
    real = predicates._certified
    monkeypatch.setattr(predicates, "_certified",
                        lambda *a: filtered.append(1) or real(*a))
    return filtered


@pytest.mark.parametrize("dim", [2, 3])
def test_static_tier_agrees_with_rational_oracle(dim, monkeypatch):
    # The cloud predicates on random tuples and on tuples one ulp off a
    # plane or sphere give the cofactor Fraction oracle's signs. Counting
    # the calls that reach the permanent filter: where a tier is off (its
    # bound not finite or below the underflow guard, or an extent above 2)
    # every call does, and where it is on, the generic calls return from the
    # static tier.
    oracles = ((exact_orient2d, exact_incircle) if dim == 2
               else (exact_orient3d, exact_insphere))
    filtered = _counting_filter(monkeypatch)
    rng = np.random.default_rng(600 + dim)
    for name, cloud, orients, balls in _tier_clouds(dim):
        tests = _cloud_tests([tuple(p) for p in cloud.tolist()])
        statics = predicates._static_bounds(cloud.tolist())
        for k, (test, oracle, near) in enumerate(zip(tests, oracles,
                                                     (orients, balls))):
            size = dim + 1 + k
            generic = cloud[rng.integers(0, len(cloud), (500, size))]
            for tuples, is_generic in ((near, False), (generic, True)):
                cases = [[tuple(p) for p in t] for t in tuples.tolist()]
                filtered.clear()
                want = [oracle(*c) for c in cases]
                assert [test(*c) for c in cases] == want, (name, k)
                if not is_generic:
                    assert {-1, 0, 1} <= set(want), (name, k)
                if statics[k] is None:
                    assert len(filtered) == len(cases), (name, k)
                elif is_generic:
                    assert len(filtered) < len(cases) // 10, (name, k)


@pytest.mark.parametrize("dim", [2, 3])
def test_inball_from_agrees_with_rational_oracle(dim, monkeypatch):
    # One in-ball test per query point serves many simplices, reusing each
    # vertex's translated, lifted row: 25 queries against 20 simplices each
    # drawn from 8 other points, and the tuples one ulp off a sphere, each
    # tested in its vertex order and with two vertices swapped (the sign
    # flips). All give the Fraction oracle's signs; where the in-ball tier
    # is off every test reaches the permanent filter, and where it is on
    # fewer than 10% of the generic ones do.
    oracle = exact_incircle if dim == 2 else exact_insphere
    filtered = _counting_filter(monkeypatch)
    rng = np.random.default_rng(700 + dim)
    for name, cloud, _, balls in _tier_clouds(dim):
        points = [tuple(p) for p in cloud.tolist()]
        _, inball_from = predicates._cloud_predicates(points)
        static = predicates._static_bounds(points)[1]
        if name.endswith(("2^-664", "2^-200", "2^2", "2^532")):
            assert static is None, name
        index = {p: i for i, p in enumerate(points)}
        near = [[index[p] for p in map(tuple, t)] for t in balls.tolist()]
        generic = []
        for _ in range(25):
            q, *pool = rng.choice(len(points), 9, replace=False).tolist()
            generic.append((q, [rng.choice(pool, dim + 1,
                                           replace=False).tolist()
                                for _ in range(20)]))
        for groups, is_generic in (
                ([(t[-1], [t[:-1], t[1::-1] + t[2:-1]]) for t in near], False),
                (generic, True)):
            filtered.clear()
            got, want = [], []
            for q, simplices in groups:
                inball = inball_from(q)
                for vs in simplices:
                    got.append(inball(vs))
                    want.append(oracle(*[points[v] for v in vs], points[q]))
            assert got == want, name
            if not is_generic:
                assert {-1, 0, 1} <= set(want), name
            if static is None:
                assert len(filtered) == len(got), name
            elif is_generic:
                assert len(filtered) < len(got) // 10, name
