import math

import numpy as np
import pytest

from delrips import predicates
from delrips.predicates import (collinear3d, incircle, inball_signs, insphere,
                                orient2d, orient3d, orient_signs)


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


