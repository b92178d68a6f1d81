"""Sign-exact orientation and in-sphere predicates for R^2 and R^3.

Each predicate evaluates its determinant in plain floating point first and
accepts the sign when the magnitude clears a forward error bound (the static
filter of Shewchuk's adaptive predicates). Otherwise ``_exact_sign``
evaluates the same expression in Python integers (as Fortune and Van Wyk
do): every float is an integer times a power of two, so one common left
shift makes all coordinates integers, and each determinant is homogeneous,
so that common scaling keeps its sign. The fallback only fires near
degeneracy, so the exact path costs nothing on generic input. The exact
stage evaluates the determinant alone, not the permanent.

``_cloud_predicates`` puts a third tier in front of the filter for the
tests of one cloud, the semi-static filter of Devillers and Pion
("Efficient exact geometric predicates for Delaunay triangulations", 2003)
and of CGAL's static filters (Meyer and Pion, "FPG", 2008). A test first
evaluates its determinant. If the magnitude exceeds a bound computed once
per cloud, the float sign is returned at once. Otherwise the same call goes
on to the tuple's own permanent and its filter, then to the exact stage.
The determinant is evaluated once. The tier returns a sign only where the
float sign is provably the exact one, so every sign, and every output built
from them, is unchanged. One factory, ``_predicate``, writes the cascade;
the four public predicates are its case without the cloud's tier.

The in-ball expressions come in two steps, as Shewchuk's in-sphere and
Devillers and Pion's write them: ``_insphere_lift`` translates a point by
the query point e and lifts it, (x, y, z, x^2 + y^2 + z^2), and
``_insphere_rows`` evaluates the determinant of four such rows and its
permanent (likewise ``_incircle_``). The batches, the exact stage and the
public predicates run that one formula, and so does ``inball_from(p)``,
which ``_cloud_predicates`` gives the insertion loop: the in-ball test
against ``points[p]`` as a function of vertex ids, lifting each vertex once
per insertion, then the same cascade on the original points.

- **The bound.** Every coordinate difference of two of the cloud's points
  is at most the cloud's extent on that axis, X, Y or Z. That holds in
  floats too, since rounding is monotone. So the permanent of any tuple is
  at most 2XY for orient2d, 6XYZ for orient3d, 6XY(X^2+Y^2) for incircle
  and 24XYZ(X^2+Y^2+Z^2) for insphere. The cloud's bound is the A-bound
  times that permanent bound times 1 + 2^-40. The slack covers the at most
  20 roundings, each within 2^-53, by which a tuple's float permanent can
  exceed the exact one, and those of the bound itself. So the bound
  dominates the A-bound times the float permanent of every tuple.
- **Underflow.** The A-bounds assume that no intermediate underflows. An
  underflowing product adds an absolute error of at most 2^-1075. When
  every extent is at most 2, the later factors (each an extent, at most 2,
  or a lift, at most 12) and the number of products keep the sum of these
  errors below 2^12 times that. The tier is on only for such clouds, and
  only when the bound is at least
  ``_UNDERFLOW_GUARD``. Then the slack, about 2^-40 times the guard,
  exceeds any such error by over a hundred binary orders of magnitude.
  ``delaunay`` scales each cloud by a power of two that brings its largest
  coordinate near 1, so every extent is below 2 for every cloud whose
  nonzero coordinates span less than about 2^1022.
- **Overflow.** With every extent at most 2 no determinant can overflow:
  the largest permanent bound is 24 * 2^3 * 12. A cloud whose bound
  overflows to inf, or whose extents exceed 2, keeps the two-tier path.

All predicates return -1, 0, or +1. The batch kernels ``orient_signs``,
``inball_signs``, ``diametral_signs`` (is a point strictly inside the
smallest circumball of an edge or a triangle?) and ``circumdiameters`` take
the cloud's points and rows of vertex ids, and for tests against points
the arrays (i, q): point q[k] against simplex rows[i[k]]. One loop,
``_batch``, runs them all: it scales the cloud once by an exact power of
two (``scale_exponent``), gathers one ``core._blocks`` chunk of tests at a
time, runs the float formula and its filter in numpy, and evaluates
exactly what the filter cannot certify.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _blocks

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
# A cloud's static bound is its A-bound times its permanent bound times this
# slack, which covers the at most 20 roundings (each within _EPS) of a tuple's
# float permanent and of the bound itself, and any underflow (module doc).
_STATIC_SLACK = 1.0 + 2.0 ** -40


def _certified(det, permanent, bound):
    """The static filter: the float sign of det is the true, nonzero sign.
    Never true when the permanent is tiny (possible underflow), inf or nan;
    elementwise for numpy arrays."""
    errbound = bound * permanent
    return (permanent >= _UNDERFLOW_GUARD) & ((det > errbound) | (-det > errbound))


def scale_exponent(points) -> int:
    """The binary exponent e of the largest |coordinate|, or 0 when scaling
    by 2**-e would make some nonzero coordinate subnormal: only an exact
    scaling keeps every sign (and every ratio)."""
    mags = np.abs(np.asarray(points, dtype=float))
    e = math.frexp(float(mags.max(initial=0.0)))[1]
    low = float(mags.min(initial=math.inf, where=mags != 0.0))
    return 0 if math.ldexp(low, -e) < np.finfo(float).tiny else e


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
    the points' coordinates scaled to integers by ``_integer_coords``; a
    ``static`` of -1 stops ``terms`` before the permanent."""
    det, _ = terms(*_integer_coords(points)[0], -1)
    return _sign(det)


def _static_bounds(points) -> tuple:
    """The static bounds of the cloud's orient and inball tests, each None
    where its tier is off: the A-bound times the permanent bound from the
    per-axis extents X, Y (, Z) of the points, 2XY and 6XY(X^2+Y^2) in R^2,
    6XYZ and 24XYZ(X^2+Y^2+Z^2) in R^3, times ``_STATIC_SLACK``. The tier
    is off when that bound is not finite or is below ``_UNDERFLOW_GUARD``,
    or when an extent exceeds 2 (see the module doc)."""
    ext = [max(axis) - min(axis) for axis in zip(*points)]
    x, y = ext[0], ext[1]
    if len(ext) == 2:
        bounds = (_O2D_BOUND * (2.0 * x * y),
                  _ICC_BOUND * (6.0 * x * y * (x * x + y * y)))
    else:
        z = ext[2]
        bounds = (_O3D_BOUND * (6.0 * x * y * z),
                  _ISP_BOUND * (24.0 * x * y * z * (x * x + y * y + z * z)))
    bounds = [_STATIC_SLACK * b for b in bounds]
    return tuple(b if max(ext) <= 2.0 and _UNDERFLOW_GUARD <= b < math.inf
                 else None for b in bounds)


def _cloud_predicates(points) -> tuple:
    """``(orient, inball_from)`` for the given points, all in R^2 or all in
    R^3, each test with the cloud's static tier in front where
    ``_static_bounds`` allows it. ``orient`` is orient2d or orient3d on
    points. ``inball_from(p)`` is incircle or insphere against the query
    point ``points[p]``, as a function of the list of the simplex's vertex
    ids: it translates and lifts each vertex by the query point once, on
    its first test, and evaluates every test on those rows, then goes on as
    ``_predicate`` does."""
    # One closure per dimension: unpacking the ids and looking up each row
    # by name is faster than a generic gather, and a test is the loop's
    # most frequent call.
    orient_static, static = _static_bounds(points)
    if len(points[0]) == 2:
        orient = _predicate(_orient2d_terms, _O2D_BOUND, orient_static)

        def inball_from(p):
            e = points[p]
            row = _LiftedRows(_incircle_lift, points, e).__getitem__

            def inball(vs):
                a, b, c = vs
                det, permanent = _incircle_rows(row(a), row(b), row(c), static)
                if permanent is None:
                    return 1 if det > 0 else -1
                return _filtered(det, permanent, _ICC_BOUND, _incircle_terms,
                                 *[points[v] for v in vs], e)
            return inball
        return orient, inball_from

    orient = _predicate(_orient3d_terms, _O3D_BOUND, orient_static)

    def inball_from(p):
        e = points[p]
        row = _LiftedRows(_insphere_lift, points, e).__getitem__

        def inball(vs):
            a, b, c, d = vs
            det, permanent = _insphere_rows(row(a), row(b), row(c), row(d),
                                            static)
            if permanent is None:
                return 1 if det > 0 else -1
            return _filtered(det, permanent, _ISP_BOUND, _insphere_terms,
                             *[points[v] for v in vs], e)
        return inball
    return orient, inball_from


class _LiftedRows(dict):
    """Vertex id -> ``lift(points[v], e)``, made on first use."""

    __slots__ = ("lift", "points", "e")

    def __init__(self, lift, points, e):
        self.lift, self.points, self.e = lift, points, e

    def __missing__(self, v):
        row = self[v] = self.lift(self.points[v], self.e)
        return row


def _predicate(terms, bound, static=None):
    """The predicate of ``terms`` in up to three tiers: the sign of the
    float determinant when its magnitude exceeds the cloud's ``static``
    bound (a tier that is off when ``static`` is None), else ``_filtered``.
    The determinant is evaluated once."""
    def predicate(*points):
        det, permanent = terms(*points, static)
        if permanent is None:
            return 1 if det > 0 else -1
        return _filtered(det, permanent, bound, terms, *points)
    return predicate


def _filtered(det, permanent, bound, terms, *points) -> int:
    """The tiers after the static one: the sign of det where the filter on
    the tuple's own permanent certifies it, else ``_exact_sign``."""
    if _certified(det, permanent, bound):
        return _sign(det)
    return _exact_sign(terms, *points)


def orient2d(a, b, c) -> int:
    """Sign of the signed area of triangle abc (+1 = counterclockwise)."""
    return _orient2d(a, b, c)


def _orient2d_terms(a, b, c, static=None):
    """Float determinant and permanent of orient2d; the coordinates may be
    floats, ints (the exact stage) or numpy arrays (one entry per test).
    The permanent is None when |det| exceeds ``static`` (see
    ``_predicate``)."""
    acx = a[0] - c[0]
    acy = a[1] - c[1]
    bcx = b[0] - c[0]
    bcy = b[1] - c[1]
    detleft = acx * bcy
    detright = acy * bcx
    det = detleft - detright
    if static is not None and (det > static or -det > static):
        return det, None
    return det, abs(detleft) + abs(detright)


def orient3d(a, b, c, d) -> int:
    """Sign of det[[a-d], [b-d], [c-d]] for points in R^3."""
    return _orient3d(a, b, c, d)


def _orient3d_terms(a, b, c, d, static=None):
    """Float determinant and permanent of orient3d; the coordinates may be
    floats, ints (the exact stage) or numpy arrays (one entry per test).
    The permanent is None when |det| exceeds ``static`` (see
    ``_predicate``)."""
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
    if static is not None and (det > static or -det > static):
        return det, None
    permanent = ((abs(bdxcdy) + abs(cdxbdy)) * abs(adz)
                 + (abs(cdxady) + abs(adxcdy)) * abs(bdz)
                 + (abs(adxbdy) + abs(bdxady)) * abs(cdz))
    return det, permanent


def incircle(a, b, c, p) -> int:
    """In-circle test in R^2.

    Positive when p lies strictly inside the circle through a, b, c,
    provided abc is counterclockwise; the sign flips with orientation.
    """
    return _incircle(a, b, c, p)


def _incircle_terms(a, b, c, p, static=None):
    """Float determinant and permanent of the in-circle test; the
    coordinates may be floats, ints (the exact stage) or numpy arrays (one
    entry per test). The permanent is None when |det| exceeds ``static``
    (see ``_predicate``)."""
    return _incircle_rows(_incircle_lift(a, p), _incircle_lift(b, p),
                          _incircle_lift(c, p), static)


def _incircle_lift(a, p):
    """Point a translated by the query point p, and its lift."""
    adx = a[0] - p[0]
    ady = a[1] - p[1]
    return adx, ady, adx * adx + ady * ady


def _incircle_rows(a, b, c, static=None):
    """``_incircle_terms`` on the points' ``_incircle_lift`` rows."""
    adx, ady, alift = a
    bdx, bdy, blift = b
    cdx, cdy, clift = c

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    cdxady = cdx * ady
    adxcdy = adx * cdy
    adxbdy = adx * bdy
    bdxady = bdx * ady

    det = (alift * (bdxcdy - cdxbdy)
           + blift * (cdxady - adxcdy)
           + clift * (adxbdy - bdxady))
    if static is not None and (det > static or -det > static):
        return det, None
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
    return _insphere(a, b, c, d, e)


def _insphere_terms(a, b, c, d, e, static=None):
    """Float determinant and permanent of the in-sphere test; the
    coordinates may be floats, ints (the exact stage) or numpy arrays (one
    entry per test). The permanent is None when |det| exceeds ``static``
    (see ``_predicate``)."""
    return _insphere_rows(_insphere_lift(a, e), _insphere_lift(b, e),
                          _insphere_lift(c, e), _insphere_lift(d, e), static)


def _insphere_lift(a, e):
    """Point a translated by the query point e, and its lift."""
    aex = a[0] - e[0]
    aey = a[1] - e[1]
    aez = a[2] - e[2]
    return aex, aey, aez, aex * aex + aey * aey + aez * aez


def _insphere_rows(a, b, c, d, static=None):
    """``_insphere_terms`` on the points' ``_insphere_lift`` rows."""
    aex, aey, aez, alift = a
    bex, bey, bez, blift = b
    cex, cey, cez, clift = c
    dex, dey, dez, dlift = d

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

    det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd)
    if static is not None and (det > static or -det > static):
        return det, None

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


# The cascade behind the public predicates, without a cloud's tier.
_orient2d = _predicate(_orient2d_terms, _O2D_BOUND)
_orient3d = _predicate(_orient3d_terms, _O3D_BOUND)
_incircle = _predicate(_incircle_terms, _ICC_BOUND)
_insphere = _predicate(_insphere_terms, _ISP_BOUND)


def _diametral_edge_terms(a, b, q, static=None):
    """Float value and permanent of (a - q).(q - b), positive iff q lies
    strictly inside the ball with diameter ab; the coordinates may be
    floats, ints (the exact stage) or numpy arrays (one entry per test), in
    R^2 or R^3. The permanent is None when |det| exceeds ``static``."""
    products = [(x - z) * (z - y) for x, y, z in zip(a, b, q)]
    det = sum(products)
    if static is not None and (det > static or -det > static):
        return det, None
    return det, sum(abs(t) for t in products)


def _diametral_triangle_terms(a, b, c, q, static=None):
    """Float value and permanent of a polynomial positive iff q lies
    strictly inside the smallest circumball of triangle abc (its diametral
    sphere in R^3); the coordinates may be floats, ints (the exact stage) or
    numpy arrays (one entry per test). The permanent is None when |det|
    exceeds ``static``.

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
    if static is not None and (det > static or -det > static):
        return det, None
    permanent = (vv * (uu + uvplus) * wuplus + uu * (vv + uvplus) * wvplus
                 + ww * (uu * vv + uvplus * uvplus))
    return det, permanent


def orient_signs(points, rows) -> np.ndarray:
    """Exact ``orient2d`` / ``orient3d`` sign of each simplex as an int
    array; ``points`` is the cloud, (n, d) floats, and each row of ``rows``
    one simplex's d+1 vertex ids."""
    if np.shape(points)[1] == 2:
        return _signs(points, rows, None, _orient2d_terms, _O2D_BOUND)
    return _signs(points, rows, None, _orient3d_terms, _O3D_BOUND)


def inball_signs(points, rows, pairs) -> np.ndarray:
    """Exact ``incircle`` / ``insphere`` sign of point q[k] against simplex
    rows[i[k]] for each k, as an int array; ``pairs`` is (i, q)."""
    if np.shape(points)[1] == 2:
        return _signs(points, rows, pairs, _incircle_terms, _ICC_BOUND)
    return _signs(points, rows, pairs, _insphere_terms, _ISP_BOUND)


def diametral_signs(points, rows, pairs) -> np.ndarray:
    """Exact sign of point q[k] against the smallest circumball of face
    rows[i[k]] for each k, as an int array, where ``pairs`` is (i, q): +1
    strictly inside, 0 on the sphere, -1 outside. The faces are edges in
    R^2 or R^3, or triangles in R^3."""
    if np.shape(rows)[1] == 2:
        return _signs(points, rows, pairs, _diametral_edge_terms, _DEDGE_BOUND)
    return _signs(points, rows, pairs, _diametral_triangle_terms, _DTRI_BOUND)


def _signs(points, rows, pairs, terms, bound) -> np.ndarray:
    """``_batch`` of a predicate: the float sign where the static filter
    certifies it, else ``_exact_sign``."""
    def float_pass(*coords):
        det, permanent = terms(*coords)
        sure = _certified(det, permanent, bound)
        return np.where(sure, np.sign(det), 0.0), sure
    return _batch(points, rows, pairs, float_pass,
                  lambda *pts: _exact_sign(terms, *pts), np.int64)[0]


def _batch(points, rows, pairs, float_pass, exact, dtype) -> tuple:
    """The batch kernels' one loop: their values as a ``dtype`` array, and
    the e by which the points were scaled, by 2**-e (``scale_exponent``).
    Test k is simplex rows[k] or, given ``pairs`` = (i, q), simplex
    rows[i[k]] and point q[k]. Per ``core._blocks`` chunk of tests, each
    counted as 4 k d entries for its k points in R^d, ``float_pass`` gets
    one array per coordinate of the points and returns the values and where
    they are certified; ``exact`` of the test's points replaces the rest."""
    e = scale_exponent(points)
    pts = np.ldexp(np.asarray(points, dtype=float), -e)
    rows = np.asarray(rows, dtype=np.int64)
    out = np.empty(len(rows) if pairs is None else len(pairs[0]), dtype)
    size = 4 * (rows.shape[1] + (pairs is not None)) * pts.shape[1]
    for chunk in _blocks(np.broadcast_to(size, len(out))):
        coords = pts[rows[chunk] if pairs is None else np.column_stack(
            [rows[pairs[0][chunk]], pairs[1][chunk]])]
        with np.errstate(all="ignore"):
            out[chunk], sure = float_pass(*coords.transpose(1, 2, 0))
        for k in np.flatnonzero(~sure).tolist():
            out[chunk.start + k] = exact(*coords[k].tolist())
    return out, e


def _triangle_diameter_terms(a, b, c, static=None):
    """The squared circumdiameter of triangle abc in R^2 or R^3 as
    ``num / den`` and the squared permanents of num and den:
    |ab|^2 |bc|^2 |ca|^2 over the squared area term, the sum of the squared
    ``_orient2d_terms`` determinants of the coordinate-plane projections.
    A ``static`` of -1 (the exact stage) skips the permanents: they are
    None."""
    num = 1
    for p, q in ((a, b), (b, c), (c, a)):
        num = num * sum((x - y) * (x - y) for x, y in zip(p, q))
    planes = ((0, 1),) if len(a) == 2 else ((0, 1), (0, 2), (1, 2))
    areas = [_orient2d_terms((a[i], a[j]), (b[i], b[j]), (c[i], c[j]), static)
             for i, j in planes]
    den = sum(det * det for det, _ in areas)
    if static is not None:
        return num, den, None, None
    return num, den, num, sum(plus * plus for _, plus in areas)


def _tetrahedron_diameter_terms(a, b, c, d, static=None):
    """The squared circumdiameter of tetrahedron abcd as ``num / den`` and
    the squared permanents of num and den: |n|^2 over the squared
    ``_orient3d_terms`` determinant, where with u = b - a, v = c - a and
    w = d - a, n = |u|^2 (v x w) + |v|^2 (w x u) + |w|^2 (u x v) is twice
    the determinant times the circumcenter's offset from a. A ``static`` of
    -1 (the exact stage) skips the permanents: they are None."""
    u, v, w = ([y - x for x, y in zip(a, p)] for p in (b, c, d))
    lifts = [sum(x * x for x in p) for p in (u, v, w)]
    num = num_plus = 0
    for i, j in ((1, 2), (2, 0), (0, 1)):  # the cross product's components
        comp = comp_plus = 0
        for lift, (x, y) in zip(lifts, ((v, w), (w, u), (u, v))):
            s, t = x[i] * y[j], x[j] * y[i]
            comp = comp + lift * (s - t)
            if static is None:
                comp_plus = comp_plus + lift * (abs(s) + abs(t))
        num = num + comp * comp
        num_plus = num_plus + comp_plus * comp_plus
    det, det_plus = _orient3d_terms(b, c, d, a, static)
    if static is not None:
        return num, det * det, None, None
    return num, det * det, num_plus, det_plus * det_plus


def circumdiameters(points, rows) -> np.ndarray:
    """Circumdiameters (the diameter of the smallest circumball) of
    triangles or tetrahedra, each row of ``rows`` the vertex ids of one
    affinely independent simplex, as a float array: ``_batch`` of the
    closed form num / den. Where num or den is not within a factor
    ``_DIAM_COND`` of its permanent, or may have underflowed, num / den is
    evaluated exactly in integers and rounded once; then scaled back."""
    terms = (_triangle_diameter_terms if np.shape(rows)[1] == 3
             else _tetrahedron_diameter_terms)

    def float_pass(*coords):
        num, den, num_plus, den_plus = terms(*coords)
        sure = ((num >= _UNDERFLOW_GUARD) & (den >= _UNDERFLOW_GUARD)
                & (num_plus <= _DIAM_COND * num)
                & (den_plus <= _DIAM_COND * den))
        return np.sqrt(num / den), sure

    def exact(*simplex):
        ints, shift = _integer_coords(simplex)
        num, den, _, _ = terms(*ints, -1)
        return math.sqrt(num / (den << 2 * shift))
    return np.ldexp(*_batch(points, rows, None, float_pass, exact, float))


def collinear3d(a, b, c) -> bool:
    """Exact collinearity test for three points in R^3."""
    # cross(b-a, c-a) == 0 iff all three coordinate-plane projections are
    # degenerate; each projection is an exact 2D orientation test.
    return (orient2d((a[0], a[1]), (b[0], b[1]), (c[0], c[1])) == 0
            and orient2d((a[0], a[2]), (b[0], b[2]), (c[0], c[2])) == 0
            and orient2d((a[1], a[2]), (b[1], b[2]), (c[1], c[2])) == 0)
