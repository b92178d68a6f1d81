"""Sign-exact orientation and in-sphere predicates for R^2 and R^3.

Each predicate evaluates its determinant in plain floating point first and
accepts the sign when the magnitude clears a forward error bound (the static
filter of Shewchuk's adaptive predicates). Otherwise ``_exact_sign``
evaluates the same expression in Python integers (as Fortune and Van Wyk
do): every float is an integer times a power of two, so one common left
shift makes all coordinates integers, and each determinant is homogeneous,
so that common scaling keeps its sign. The fallback only fires near
degeneracy, so the exact path costs nothing on generic input.

All predicates return -1, 0, or +1. ``orient_signs`` and ``inball_signs``
evaluate many tests at once: the same float formula and bound in one numpy
pass, and the exact evaluation for the tests the filter cannot certify.
"""

from __future__ import annotations

import numpy as np

_EPS = 2.0 ** -53

# Static filter constants (Shewchuk, "Adaptive Precision Floating-Point
# Arithmetic and Fast Robust Geometric Predicates", table of A-bounds).
_O2D_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_O3D_BOUND = (7.0 + 56.0 * _EPS) * _EPS
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS
_ISP_BOUND = (16.0 + 224.0 * _EPS) * _EPS

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


def _exact_sign(terms, *points) -> int:
    """Exact sign of the determinant that ``terms`` computes, evaluated on
    the points' float coordinates scaled to integers by one common power of
    two."""
    ratios = [[float(x).as_integer_ratio() for x in p] for p in points]
    shift = max(den for p in ratios for _, den in p).bit_length()
    det, _ = terms(*([num << (shift - den.bit_length()) for num, den in p]
                     for p in ratios))
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


def collinear3d(a, b, c) -> bool:
    """Exact collinearity test for three points in R^3."""
    # cross(b-a, c-a) == 0 iff all three coordinate-plane projections are
    # degenerate; each projection is an exact 2D orientation test.
    return (orient2d((a[0], a[1]), (b[0], b[1]), (c[0], c[1])) == 0
            and orient2d((a[0], a[2]), (b[0], b[2]), (c[0], c[2])) == 0
            and orient2d((a[1], a[2]), (b[1], b[2]), (c[1], c[2])) == 0)
