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
