import math

import numpy as np
import pytest

from delrips import predicates
from delrips.predicates import (collinear3d, incircle, inball_signs, insphere,
                                orient2d, orient3d, orient_signs)
from naive_oracle import (exact_incircle, exact_insphere, exact_orient2d,
                          exact_orient3d)


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
    for name in ("_orient2d_exact", "_orient3d_exact", "_incircle_exact",
                 "_insphere_exact"):
        monkeypatch.setattr(predicates, name,
                            lambda *a, _f=getattr(predicates, name):
                            calls.append(1) or _f(*a))
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
