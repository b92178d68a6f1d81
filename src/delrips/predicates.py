"""Sign-exact orientation and in-sphere predicates for R^2 and R^3.

Each predicate evaluates its determinant in plain floating point first and
accepts the sign when the magnitude clears a forward error bound (the static
filter of Shewchuk's adaptive predicates). Otherwise it falls back to exact
rational arithmetic over the original float coordinates, which Fraction
represents without loss. The fallback only fires near degeneracy, so the
exact path costs nothing on generic input.

All predicates return -1, 0, or +1. ``inball_certified_nonzero`` runs the
in-circle/in-sphere filter over many tests at once with numpy, using the same
float formula and bound, and leaves the uncertified ones to the scalar calls.
"""

from __future__ import annotations

from fractions import Fraction

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


def orient2d(a, b, c) -> int:
    """Sign of the signed area of triangle abc (+1 = counterclockwise)."""
    acx = a[0] - c[0]
    acy = a[1] - c[1]
    bcx = b[0] - c[0]
    bcy = b[1] - c[1]
    detleft = acx * bcy
    detright = acy * bcx
    det = detleft - detright

    opposite = ((detleft > 0.0 and detright <= 0.0)
                or (detleft < 0.0 and detright >= 0.0)
                or (detleft == 0.0 and detright != 0.0))
    if opposite:
        # No cancellation: the float sign is the true sign unless everything
        # vanished (possible only through underflow).
        if det != 0.0:
            return _sign(det)
        return _orient2d_exact(a, b, c)
    detsum = abs(detleft) + abs(detright)
    if detsum < _UNDERFLOW_GUARD:
        return _orient2d_exact(a, b, c)
    if det > _O2D_BOUND * detsum or -det > _O2D_BOUND * detsum:
        return _sign(det)
    return _orient2d_exact(a, b, c)


def _orient2d_exact(a, b, c) -> int:
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    return _sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))


def orient3d(a, b, c, d) -> int:
    """Sign of det[[a-d], [b-d], [c-d]] for points in R^3."""
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
    if permanent < _UNDERFLOW_GUARD:
        return _orient3d_exact(a, b, c, d)
    errbound = _O3D_BOUND * permanent
    if det > errbound or -det > errbound:
        return _sign(det)
    return _orient3d_exact(a, b, c, d)


def _orient3d_exact(a, b, c, d) -> int:
    rows = []
    for p in (a, b, c):
        rows.append([Fraction(p[i]) - Fraction(d[i]) for i in range(3)])
    return _sign(_det3(rows))


def incircle(a, b, c, p) -> int:
    """In-circle test in R^2.

    Positive when p lies strictly inside the circle through a, b, c,
    provided abc is counterclockwise; the sign flips with orientation.
    """
    det, permanent = _incircle_terms(a, b, c, p)
    if _certified(det, permanent, _ICC_BOUND):
        return _sign(det)
    return _incircle_exact(a, b, c, p)


def _incircle_terms(a, b, c, p):
    """Float determinant and permanent of the in-circle test; the
    coordinates may be floats or numpy arrays (one entry per test)."""
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


def _incircle_exact(a, b, c, p) -> int:
    px, py = Fraction(p[0]), Fraction(p[1])
    rows = []
    for q in (a, b, c):
        qx = Fraction(q[0]) - px
        qy = Fraction(q[1]) - py
        rows.append([qx, qy, qx * qx + qy * qy])
    return _sign(_det3(rows))


def insphere(a, b, c, d, e) -> int:
    """In-sphere test in R^3.

    Positive when e lies strictly inside the sphere through a, b, c, d,
    provided orient3d(a, b, c, d) is positive; the sign flips with
    orientation.
    """
    det, permanent = _insphere_terms(a, b, c, d, e)
    if _certified(det, permanent, _ISP_BOUND):
        return _sign(det)
    return _insphere_exact(a, b, c, d, e)


def _insphere_terms(a, b, c, d, e):
    """Float determinant and permanent of the in-sphere test; the
    coordinates may be floats or numpy arrays (one entry per test)."""
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


def _insphere_exact(a, b, c, d, e) -> int:
    ex = [Fraction(e[i]) for i in range(3)]
    rows = []
    for q in (a, b, c, d):
        v = [Fraction(q[i]) - ex[i] for i in range(3)]
        rows.append(v + [v[0] * v[0] + v[1] * v[1] + v[2] * v[2]])
    return _sign(_det4(rows))


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _det4(m):
    total = 0
    sign = 1
    for col in range(4):
        minor = [[m[r][c] for c in range(4) if c != col] for r in (1, 2, 3)]
        total += sign * m[0][col] * _det3(minor)
        sign = -sign
    return total


def inball_certified_nonzero(simplices, queries) -> np.ndarray:
    """Batch static filter of ``incircle`` / ``insphere``: entry k is True
    when the float filter alone proves query k off the circumsphere of
    simplex k. ``simplices`` has shape (m, d+1, d) and ``queries`` (m, d).
    Same formula and bound as the scalar predicates, so a True entry means
    their exact sign is nonzero; a False entry decides nothing."""
    cols = np.asarray(simplices, dtype=float).transpose(1, 2, 0)
    q = np.asarray(queries, dtype=float).T
    with np.errstate(all="ignore"):
        if len(q) == 2:
            return _certified(*_incircle_terms(*cols, q), _ICC_BOUND)
        return _certified(*_insphere_terms(*cols, q), _ISP_BOUND)


def collinear3d(a, b, c) -> bool:
    """Exact collinearity test for three points in R^3."""
    # cross(b-a, c-a) == 0 iff all three coordinate-plane projections are
    # degenerate; each projection is an exact 2D orientation test.
    return (orient2d((a[0], a[1]), (b[0], b[1]), (c[0], c[1])) == 0
            and orient2d((a[0], a[2]), (b[0], b[2]), (c[0], c[2])) == 0
            and orient2d((a[1], a[2]), (b[1], b[2]), (c[1], c[2])) == 0)
