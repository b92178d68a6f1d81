"""Sign-exact orientation and in-sphere predicates for R^2 and R^3.

Each predicate evaluates its determinant in plain floating point first and
accepts the sign when the magnitude clears a forward error bound (the static
filter of Shewchuk's adaptive predicates). Otherwise ``_exact_sign``
evaluates the same expression in Python integers (as Fortune and Van Wyk
do): every float is an integer times a power of two, so one common left
shift makes all coordinates integers, and each determinant is homogeneous,
so that common scaling keeps its sign. The fallback only fires near
degeneracy, so the exact path costs nothing on generic input.

All predicates return -1, 0, or +1. ``orient_signs``, ``inball_signs`` and
``diametral_signs`` (is a point strictly inside the smallest circumball of
an edge or a triangle?) evaluate many tests at once: the same float formula
and bound in one numpy pass, and the exact evaluation for the tests the
filter cannot certify. ``circumdiameters`` follows the same pattern for a
quantity rather than a sign: a closed form in floats where its condition
is certified, else the same formula in integers, rounded once.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 2.0 ** -53

# Static filter constants (Shewchuk, "Adaptive Precision Floating-Point
# Arithmetic and Fast Robust Geometric Predicates", table of A-bounds).
_O2D_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_O3D_BOUND = (7.0 + 56.0 * _EPS) * _EPS
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS
_ISP_BOUND = (16.0 + 224.0 * _EPS) * _EPS
# The same kind of bound for the two diametral-ball tests: k epsilon plus a
# second-order term for an expression with k roundings on its longest path
# from a coordinate difference to the result (4 for the edge test in R^3, 9
# for the triangle test); Shewchuk's orient2d bound is the case k = 3.
_DEDGE_BOUND = (4.0 + 32.0 * _EPS) * _EPS
_DTRI_BOUND = (9.0 + 128.0 * _EPS) * _EPS
# ``circumdiameters`` takes a closed-form num / den in floats when each of
# num and den is within this factor of its squared permanent (a condition
# number of at most 128). With at most 7 roundings on a path to a
# tetrahedron's num and 6 to its den, the squared diameter is then within
# about 2 * (7 + 6) * 128 = 3328 epsilon (relative), the diameter within
# half that, 3.7e-13; triangles do better.
_DIAM_COND = 2.0 ** 14

# The A-bounds assume no intermediate underflow. Whenever the term-magnitude
# sum is this small (or overflows to inf/nan, which fails every comparison),
# skip the filter and evaluate exactly.
_UNDERFLOW_GUARD = 1e-250


def _certified(det, permanent, bound):
    """The static filter: the float sign of det is the true, nonzero sign.
    Never true when the permanent is tiny (possible underflow), inf or nan;
    elementwise for numpy arrays."""
    errbound = bound * permanent
    return (permanent >= _UNDERFLOW_GUARD) & ((det > errbound) | (-det > errbound))


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _integer_coords(points) -> tuple:
    """The points' float coordinates times 2**shift, the one common power
    of two that makes them all integers, as lists of ints; and shift."""
    ratios = [[float(x).as_integer_ratio() for x in p] for p in points]
    shift = max(den for p in ratios for _, den in p).bit_length() - 1
    return [[num << (shift + 1 - den.bit_length()) for num, den in p]
            for p in ratios], shift


def _exact_sign(terms, *points) -> int:
    """Exact sign of the determinant that ``terms`` computes, evaluated on
    the points' coordinates scaled to integers by ``_integer_coords``."""
    det, _ = terms(*_integer_coords(points)[0])
    return _sign(det)


def orient2d(a, b, c) -> int:
    """Sign of the signed area of triangle abc (+1 = counterclockwise)."""
    det, detsum = _orient2d_terms(a, b, c)
    if _certified(det, detsum, _O2D_BOUND):
        return _sign(det)
    return _exact_sign(_orient2d_terms, a, b, c)


def _orient2d_terms(a, b, c):
    """Float determinant and permanent of orient2d; the coordinates may be
    floats, ints (the exact stage) or numpy arrays (one entry per test)."""
    acx = a[0] - c[0]
    acy = a[1] - c[1]
    bcx = b[0] - c[0]
    bcy = b[1] - c[1]
    detleft = acx * bcy
    detright = acy * bcx
    return detleft - detright, abs(detleft) + abs(detright)


def orient3d(a, b, c, d) -> int:
    """Sign of det[[a-d], [b-d], [c-d]] for points in R^3."""
    det, permanent = _orient3d_terms(a, b, c, d)
    if _certified(det, permanent, _O3D_BOUND):
        return _sign(det)
    return _exact_sign(_orient3d_terms, a, b, c, d)


def _orient3d_terms(a, b, c, d):
    """Float determinant and permanent of orient3d; the coordinates may be
    floats, ints (the exact stage) or numpy arrays (one entry per test)."""
    adx = a[0] - d[0]
    bdx = b[0] - d[0]
    cdx = c[0] - d[0]
    ady = a[1] - d[1]
    bdy = b[1] - d[1]
    cdy = c[1] - d[1]
    adz = a[2] - d[2]
    bdz = b[2] - d[2]
    cdz = c[2] - d[2]

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    cdxady = cdx * ady
    adxcdy = adx * cdy
    adxbdy = adx * bdy
    bdxady = bdx * ady

    det = (adz * (bdxcdy - cdxbdy)
           + bdz * (cdxady - adxcdy)
           + cdz * (adxbdy - bdxady))
    permanent = ((abs(bdxcdy) + abs(cdxbdy)) * abs(adz)
                 + (abs(cdxady) + abs(adxcdy)) * abs(bdz)
                 + (abs(adxbdy) + abs(bdxady)) * abs(cdz))
    return det, permanent


def incircle(a, b, c, p) -> int:
    """In-circle test in R^2.

    Positive when p lies strictly inside the circle through a, b, c,
    provided abc is counterclockwise; the sign flips with orientation.
    """
    det, permanent = _incircle_terms(a, b, c, p)
    if _certified(det, permanent, _ICC_BOUND):
        return _sign(det)
    return _exact_sign(_incircle_terms, a, b, c, p)


def _incircle_terms(a, b, c, p):
    """Float determinant and permanent of the in-circle test; the
    coordinates may be floats, ints (the exact stage) or numpy arrays (one
    entry per test)."""
    adx = a[0] - p[0]
    bdx = b[0] - p[0]
    cdx = c[0] - p[0]
    ady = a[1] - p[1]
    bdy = b[1] - p[1]
    cdy = c[1] - p[1]

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady
    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy
    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (alift * (bdxcdy - cdxbdy)
           + blift * (cdxady - adxcdy)
           + clift * (adxbdy - bdxady))
    permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift
                 + (abs(cdxady) + abs(adxcdy)) * blift
                 + (abs(adxbdy) + abs(bdxady)) * clift)
    return det, permanent


def insphere(a, b, c, d, e) -> int:
    """In-sphere test in R^3.

    Positive when e lies strictly inside the sphere through a, b, c, d,
    provided orient3d(a, b, c, d) is positive; the sign flips with
    orientation.
    """
    det, permanent = _insphere_terms(a, b, c, d, e)
    if _certified(det, permanent, _ISP_BOUND):
        return _sign(det)
    return _exact_sign(_insphere_terms, a, b, c, d, e)


def _insphere_terms(a, b, c, d, e):
    """Float determinant and permanent of the in-sphere test; the
    coordinates may be floats, ints (the exact stage) or numpy arrays (one
    entry per test)."""
    aex = a[0] - e[0]
    bex = b[0] - e[0]
    cex = c[0] - e[0]
    dex = d[0] - e[0]
    aey = a[1] - e[1]
    bey = b[1] - e[1]
    cey = c[1] - e[1]
    dey = d[1] - e[1]
    aez = a[2] - e[2]
    bez = b[2] - e[2]
    cez = c[2] - e[2]
    dez = d[2] - e[2]

    aexbey = aex * bey
    bexaey = bex * aey
    ab = aexbey - bexaey
    bexcey = bex * cey
    cexbey = cex * bey
    bc = bexcey - cexbey
    cexdey = cex * dey
    dexcey = dex * cey
    cd = cexdey - dexcey
    dexaey = dex * aey
    aexdey = aex * dey
    da = dexaey - aexdey
    aexcey = aex * cey
    cexaey = cex * aey
    ac = aexcey - cexaey
    bexdey = bex * dey
    dexbey = dex * bey
    bd = bexdey - dexbey

    abc = aez * bc - bez * ac + cez * ab
    bcd = bez * cd - cez * bd + dez * bc
    cda = cez * da + dez * ac + aez * cd
    dab = dez * ab + aez * bd + bez * da

    alift = aex * aex + aey * aey + aez * aez
    blift = bex * bex + bey * bey + bez * bez
    clift = cex * cex + cey * cey + cez * cez
    dlift = dex * dex + dey * dey + dez * dez

    det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd)

    aezplus = abs(aez)
    bezplus = abs(bez)
    cezplus = abs(cez)
    dezplus = abs(dez)
    aexbeyplus = abs(aexbey)
    bexaeyplus = abs(bexaey)
    bexceyplus = abs(bexcey)
    cexbeyplus = abs(cexbey)
    cexdeyplus = abs(cexdey)
    dexceyplus = abs(dexcey)
    dexaeyplus = abs(dexaey)
    aexdeyplus = abs(aexdey)
    aexceyplus = abs(aexcey)
    cexaeyplus = abs(cexaey)
    bexdeyplus = abs(bexdey)
    dexbeyplus = abs(dexbey)
    permanent = (((cexdeyplus + dexceyplus) * bezplus
                  + (dexbeyplus + bexdeyplus) * cezplus
                  + (bexceyplus + cexbeyplus) * dezplus) * alift
                 + ((dexaeyplus + aexdeyplus) * cezplus
                    + (aexceyplus + cexaeyplus) * dezplus
                    + (cexdeyplus + dexceyplus) * aezplus) * blift
                 + ((aexbeyplus + bexaeyplus) * dezplus
                    + (bexdeyplus + dexbeyplus) * aezplus
                    + (dexaeyplus + aexdeyplus) * bezplus) * clift
                 + ((bexceyplus + cexbeyplus) * aezplus
                    + (cexaeyplus + aexceyplus) * bezplus
                    + (aexbeyplus + bexaeyplus) * cezplus) * dlift)
    return det, permanent


def _diametral_edge_terms(a, b, q):
    """Float value and permanent of (a - q).(q - b), positive iff q lies
    strictly inside the ball with diameter ab; the coordinates may be
    floats, ints (the exact stage) or numpy arrays (one entry per test), in
    R^2 or R^3."""
    products = [(x - z) * (z - y) for x, y, z in zip(a, b, q)]
    return sum(products), sum(abs(t) for t in products)


def _diametral_triangle_terms(a, b, c, q):
    """Float value and permanent of a polynomial positive iff q lies
    strictly inside the smallest circumball of triangle abc (its diametral
    sphere in R^3); the coordinates may be floats, ints (the exact stage) or
    numpy arrays (one entry per test).

    With u = b - a, v = c - a and w = q - a, the center is a + s u + t v,
    where 2 G s = |v|^2 (|u|^2 - u.v) and 2 G t = |u|^2 (|v|^2 - u.v) for
    the Gram determinant G = |u|^2 |v|^2 - (u.v)^2 > 0. The power of q
    against the ball, |w|^2 - 2 (s w.u + t w.v), times -G is the value.
    """
    u, v, w = ([y - x for x, y in zip(a, p)] for p in (b, c, q))

    def dot(x, y):
        products = [s * t for s, t in zip(x, y)]
        return sum(products), sum(abs(t) for t in products)

    uu, _ = dot(u, u)
    vv, _ = dot(v, v)
    ww, _ = dot(w, w)
    uv, uvplus = dot(u, v)
    wu, wuplus = dot(w, u)
    wv, wvplus = dot(w, v)
    det = ((vv * (uu - uv) * wu + uu * (vv - uv) * wv)
           - ww * (uu * vv - uv * uv))
    permanent = (vv * (uu + uvplus) * wuplus + uu * (vv + uvplus) * wvplus
                 + ww * (uu * vv + uvplus * uvplus))
    return det, permanent


def orient_signs(simplices) -> np.ndarray:
    """Exact ``orient2d`` / ``orient3d`` sign of every simplex, as an int
    array; ``simplices`` has shape (m, d+1, d)."""
    pts = np.asarray(simplices, dtype=float)
    if pts.shape[2] == 2:
        return _batch_signs(pts, _orient2d_terms, _O2D_BOUND)
    return _batch_signs(pts, _orient3d_terms, _O3D_BOUND)


def inball_signs(simplices, queries) -> np.ndarray:
    """Exact ``incircle`` / ``insphere`` sign of query k against simplex k,
    as an int array; ``simplices`` has shape (m, d+1, d), ``queries``
    (m, d)."""
    pts = np.concatenate([np.asarray(simplices, dtype=float),
                          np.asarray(queries, dtype=float)[:, None, :]], axis=1)
    if pts.shape[2] == 2:
        return _batch_signs(pts, _incircle_terms, _ICC_BOUND)
    return _batch_signs(pts, _insphere_terms, _ISP_BOUND)


def diametral_signs(faces, queries) -> np.ndarray:
    """Exact sign of query k against the smallest circumball of face k, as
    an int array: +1 strictly inside, 0 on the sphere, -1 outside.
    ``faces`` has shape (m, 2, d) (edges in R^2 or R^3) or (m, 3, 3)
    (triangles in R^3), ``queries`` (m, d)."""
    pts = np.concatenate([np.asarray(faces, dtype=float),
                          np.asarray(queries, dtype=float)[:, None, :]], axis=1)
    if pts.shape[1] == 3:
        return _batch_signs(pts, _diametral_edge_terms, _DEDGE_BOUND)
    return _batch_signs(pts, _diametral_triangle_terms, _DTRI_BOUND)


def _batch_signs(pts, terms, bound) -> np.ndarray:
    """One numpy pass of a scalar predicate's float formula and static
    filter over pts (shape (m, k, d), one test's k points per row); the
    rows the filter cannot certify get ``_exact_sign`` of the same
    formula."""
    with np.errstate(all="ignore"):
        det, permanent = terms(*pts.transpose(1, 2, 0))
        sure = _certified(det, permanent, bound)
        signs = np.where(sure, np.sign(det), 0.0).astype(np.int64)
    for k in np.flatnonzero(~sure).tolist():
        signs[k] = _exact_sign(terms, *pts[k].tolist())
    return signs


def _triangle_diameter_terms(a, b, c):
    """The squared circumdiameter of triangle abc in R^2 or R^3 as
    ``num / den`` and the squared permanents of num and den:
    |ab|^2 |bc|^2 |ca|^2 over the squared area term, the sum of the squared
    ``_orient2d_terms`` determinants of the coordinate-plane projections."""
    num = 1
    for p, q in ((a, b), (b, c), (c, a)):
        num = num * sum((x - y) * (x - y) for x, y in zip(p, q))
    planes = ((0, 1),) if len(a) == 2 else ((0, 1), (0, 2), (1, 2))
    areas = [_orient2d_terms((a[i], a[j]), (b[i], b[j]), (c[i], c[j]))
             for i, j in planes]
    return (num, sum(det * det for det, _ in areas), num,
            sum(plus * plus for _, plus in areas))


def _tetrahedron_diameter_terms(a, b, c, d):
    """The squared circumdiameter of tetrahedron abcd as ``num / den`` and
    the squared permanents of num and den: |n|^2 over the squared
    ``_orient3d_terms`` determinant, where with u = b - a, v = c - a and
    w = d - a, n = |u|^2 (v x w) + |v|^2 (w x u) + |w|^2 (u x v) is twice
    the determinant times the circumcenter's offset from a."""
    u, v, w = ([y - x for x, y in zip(a, p)] for p in (b, c, d))
    lifts = [sum(x * x for x in p) for p in (u, v, w)]
    num = num_plus = 0
    for i, j in ((1, 2), (2, 0), (0, 1)):  # the cross product's components
        comp = comp_plus = 0
        for lift, (x, y) in zip(lifts, ((v, w), (w, u), (u, v))):
            s, t = x[i] * y[j], x[j] * y[i]
            comp = comp + lift * (s - t)
            comp_plus = comp_plus + lift * (abs(s) + abs(t))
        num = num + comp * comp
        num_plus = num_plus + comp_plus * comp_plus
    det, det_plus = _orient3d_terms(b, c, d, a)
    return num, det * det, num_plus, det_plus * det_plus


def circumdiameters(simplices) -> np.ndarray:
    """Circumdiameters (the diameter of the smallest circumball) of
    triangles or tetrahedra, as a float array; ``simplices`` has shape
    (m, 3, d) or (m, 4, 3) and each simplex must be affinely independent.

    One numpy pass of the closed form num / den. Where num or den is not
    within a factor ``_DIAM_COND`` of its permanent, or may have underflowed,
    num / den is instead evaluated exactly in integers and rounded once.
    """
    pts = np.asarray(simplices, dtype=float)
    if pts.shape[1] == 3:
        terms = _triangle_diameter_terms
    else:
        terms = _tetrahedron_diameter_terms
    with np.errstate(all="ignore"):
        num, den, num_plus, den_plus = terms(*pts.transpose(1, 2, 0))
        sure = ((num >= _UNDERFLOW_GUARD) & (den >= _UNDERFLOW_GUARD)
                & (num_plus <= _DIAM_COND * num)
                & (den_plus <= _DIAM_COND * den))
        out = np.sqrt(num / den)
    for k in np.flatnonzero(~sure).tolist():
        ints, shift = _integer_coords(pts[k].tolist())
        num, den, _, _ = terms(*ints)
        out[k] = math.sqrt(num / (den << 2 * shift))
    return out


def collinear3d(a, b, c) -> bool:
    """Exact collinearity test for three points in R^3."""
    # cross(b-a, c-a) == 0 iff all three coordinate-plane projections are
    # degenerate; each projection is an exact 2D orientation test.
    return (orient2d((a[0], a[1]), (b[0], b[1]), (c[0], c[1])) == 0
            and orient2d((a[0], a[2]), (b[0], b[2]), (c[0], c[2])) == 0
            and orient2d((a[1], a[2]), (b[1], b[2]), (c[1], c[2])) == 0)
