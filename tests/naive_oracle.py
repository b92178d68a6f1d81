"""Independent brute-force implementations used only as test oracles.

Nothing here imports the package's builders or reduction: the Rips oracle
enumerates the full powerset and reduces a dense GF(2) matrix with numpy,
the bottleneck oracles enumerate every partial bijection or run scipy's
bipartite matching on the standard diagonal-copy reduction, the image
oracle integrates by midpoint quadrature, the predicate oracles expand
each determinant by cofactors in exact rational arithmetic, and the column
addition oracle is a two-pointer merge. The face oracles enumerate vertex
combinations into sets and dicts; the Alpha oracle takes the package's
triangulation and nothing else from it: circumdiameters in exact integer
arithmetic, a Gabriel test against all points (a k-d tree picks the
candidates, each decided exactly) and a dict of coface tuples. The
filtration check is the dict of vertex tuples the package's array check
replaced, and the persistence image is the per-pair ``math.erf`` loop.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree

from delrips import delaunay
from delrips.core import simplex_faces
from delrips.errors import InvalidFiltration, UnsortedFiltration


def naive_vr_diagram(points, max_hom_dim):
    """Vietoris-Rips persistence by powerset enumeration + dense reduction."""
    n = len(points)

    def dist(p, q):
        s = 0.0
        for a, b in zip(p, q):
            d = a - b
            s += d * d
        return math.sqrt(s)

    simplices = []
    for k in range(1, max_hom_dim + 3):
        for verts in itertools.combinations(range(n), k):
            if k == 1:
                scale = 0.0
            else:
                scale = max(dist(points[a], points[b])
                            for a, b in itertools.combinations(verts, 2))
            simplices.append((scale, k - 1, verts))
    simplices.sort(key=lambda t: (t[0], t[1], t[2]))
    index = {verts: i for i, (_, _, verts) in enumerate(simplices)}

    m = len(simplices)
    mat = np.zeros((m, m), dtype=np.uint8)
    for j, (_, d, verts) in enumerate(simplices):
        if d == 0:
            continue
        for k in range(len(verts)):
            face = verts[:k] + verts[k + 1:]
            mat[index[face], j] = 1

    def low(j):
        rows = np.nonzero(mat[:, j])[0]
        return int(rows[-1]) if len(rows) else -1

    owner = {}
    lows = [-1] * m
    for j in range(m):
        lows[j] = low(j)
        while lows[j] != -1 and lows[j] in owner:
            mat[:, j] ^= mat[:, owner[lows[j]]]
            lows[j] = low(j)
        if lows[j] != -1:
            owner[lows[j]] = j

    pairs = {}
    killed = set()
    for j in range(m):
        if lows[j] != -1:
            i = lows[j]
            killed.add(i)
            killed.add(j)
            p = simplices[i][1]
            if p <= max_hom_dim:
                pairs.setdefault(p, []).append((simplices[i][0], simplices[j][0]))
    for j in range(m):
        if lows[j] == -1 and j not in killed:
            p = simplices[j][1]
            if p <= max_hom_dim:
                pairs.setdefault(p, []).append((simplices[j][0], math.inf))
    return {p: tuple(sorted(v)) for p, v in pairs.items()}


def brute_bottleneck(x_pairs, y_pairs, diagonal="half"):
    """Exhaustive bottleneck for diagrams with at most ~6 points each."""
    xs = list(x_pairs)
    ys = list(y_pairs)
    x_ess = [i for i, p in enumerate(xs) if math.isinf(p[1])]
    y_ess = [j for j, p in enumerate(ys) if math.isinf(p[1])]
    if len(x_ess) != len(y_ess):
        return math.inf

    def dinf(a, b):
        d0 = abs(a[0] - b[0])
        if a[1] == b[1]:
            return d0
        return max(d0, abs(a[1] - b[1]))

    def diag(p):
        c = p[1] - p[0]
        return c if diagonal == "full" else c / 2.0

    ess_best = 0.0
    if x_ess:
        ess_best = math.inf
        for perm in itertools.permutations(y_ess):
            cost = max(abs(xs[i][0] - ys[j][0]) for i, j in zip(x_ess, perm))
            ess_best = min(ess_best, cost)

    xf = [xs[i] for i in range(len(xs)) if i not in x_ess]
    yf = [ys[j] for j in range(len(ys)) if j not in y_ess]
    best = [math.inf]

    def rec(i, used, cur):
        if cur >= best[0]:
            return
        if i == len(xf):
            rest = max((diag(yf[j]) for j in range(len(yf)) if j not in used),
                       default=0.0)
            best[0] = min(best[0], max(cur, rest))
            return
        rec(i + 1, used, max(cur, diag(xf[i])))
        for j in range(len(yf)):
            if j not in used:
                rec(i + 1, used | {j}, max(cur, dinf(xf[i], yf[j])))

    rec(0, frozenset(), 0.0)
    return max(ess_best, best[0])


def matching_bottleneck(x_pairs, y_pairs, diagonal="half"):
    """Bottleneck by perfect matchings on the standard reduction, for
    diagrams of a few hundred points.

    Left vertices are the finite X points and one diagonal copy per finite Y
    point; right vertices are the finite Y points and one diagonal copy per
    finite X point. At threshold c, x_i-y_j is an edge when their sup-norm
    distance is <= c, x_i-(copy of x_i) and (copy of y_j)-y_j when that
    point's diagonal cost is <= c, and every copy-copy edge costs 0. The
    value is the smallest candidate cost that admits a perfect matching
    (and is at least the essential classes' sorted-birth matching cost).
    """
    x_ess = sorted(b for b, d in x_pairs if math.isinf(d))
    y_ess = sorted(b for b, d in y_pairs if math.isinf(d))
    if len(x_ess) != len(y_ess):
        return math.inf
    ess = max((abs(a - b) for a, b in zip(x_ess, y_ess)), default=0.0)
    xf = np.array([p for p in x_pairs if not math.isinf(p[1])],
                  dtype=float).reshape(-1, 2)
    yf = np.array([p for p in y_pairs if not math.isinf(p[1])],
                  dtype=float).reshape(-1, 2)
    nx, ny = len(xf), len(yf)
    cost = np.zeros((nx + ny, ny + nx))
    cost[:nx, :ny] = np.maximum(abs(xf[:, None, 0] - yf[None, :, 0]),
                                abs(xf[:, None, 1] - yf[None, :, 1]))
    scale = 1.0 if diagonal == "full" else 2.0
    cost[:nx, ny:] = np.inf
    cost[nx:, :ny] = np.inf
    cost[np.arange(nx), ny + np.arange(nx)] = (xf[:, 1] - xf[:, 0]) / scale
    cost[nx + np.arange(ny), np.arange(ny)] = (yf[:, 1] - yf[:, 0]) / scale

    def perfect(c):
        graph = csr_matrix((cost <= c).astype(np.int8))
        return bool(np.all(maximum_bipartite_matching(graph) >= 0))

    cands = np.unique(np.append(cost[np.isfinite(cost)], ess))
    cands = cands[cands >= ess]
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if perfect(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo])


def merge_sym_diff(a, b):
    """Z2 sum of two strictly increasing index lists by a two-pointer merge."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        elif b[j] < a[i]:
            out.append(b[j])
            j += 1
        else:
            i += 1
            j += 1
    return out + list(a[i:]) + list(b[j:])


def naive_alpha_edge_value(points, a, b, samples=200001, span=50.0):
    """Alpha scale of edge (a, b) straight from the definition, in the
    diameter convention.

    The edge enters when the balls restricted to the two Voronoi cells first
    share a point; any such point lies on the bisector of a and b, where the
    distance to both endpoints is sqrt(t^2 + |ab|^2/4) in the offset t from
    the midpoint. Scan a dense t-grid for the feasible point closest to the
    midpoint.
    """
    pa = np.asarray(points[a], dtype=float)
    pb = np.asarray(points[b], dtype=float)
    if len(pa) != 2:
        raise NotImplementedError("2D only")
    others = np.asarray([p for i, p in enumerate(points) if i not in (a, b)],
                        dtype=float)
    mid = 0.5 * (pa + pb)
    direction = pb - pa
    normal = np.array([-direction[1], direction[0]])
    normal /= np.linalg.norm(normal)

    def best_feasible(ts):
        zs = mid + ts[:, None] * normal
        d_edge = np.linalg.norm(zs - pa, axis=1)
        if others.size:
            d_other = np.linalg.norm(zs[:, None, :] - others[None, :, :],
                                     axis=2)
            feasible = (d_edge[:, None] <= d_other).all(axis=1)
        else:
            feasible = np.ones(len(zs), dtype=bool)
        if not feasible.any():
            return None, None
        idx = np.nonzero(feasible)[0][np.argmin(d_edge[feasible])]
        return float(ts[idx]), float(d_edge[idx])

    ts = np.linspace(-span, span, samples)
    t0, d0 = best_feasible(ts)
    if t0 is None:
        return math.inf
    step = ts[1] - ts[0]
    t1, d1 = best_feasible(np.linspace(t0 - step, t0 + step, samples))
    return 2.0 * (d1 if d1 is not None else d0)


def quadrature_pi(pairs, grid, cells=50):
    """Composite 2-point Gauss-Legendre quadrature of the weighted Gaussian
    sum: cells^2 subcells with 4 nodes each, i.e. 10^4 sample points per
    pixel at the default."""
    rows, cols = grid.resolution
    b0, b1 = grid.birth_range
    p0, p1 = grid.persistence_range
    dx = (b1 - b0) / cols
    dy = (p1 - p0) / rows
    pts = [(b, d - b) for b, d in pairs if math.isfinite(d)]
    max_pers = grid.persistence_range[1]
    two_pi_s2 = 2.0 * math.pi * grid.sigma ** 2
    offsets = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
    out = np.zeros((rows, cols))
    for r in range(rows):
        for c in range(cols):
            xs = (b0 + dx * (c + (np.arange(cells)[:, None] + offsets) / cells)
                  ).reshape(-1)
            ys = (p0 + dy * (r + (np.arange(cells)[:, None] + offsets) / cells)
                  ).reshape(-1)
            gx, gy = np.meshgrid(xs, ys)
            tot = np.zeros_like(gx)
            for b, pers in pts:
                w = pers / max_pers
                tot += w * np.exp(-((gx - b) ** 2 + (gy - pers) ** 2)
                                  / (2.0 * grid.sigma ** 2)) / two_pi_s2
            out[r, c] = tot.mean() * dx * dy
    return out.reshape(-1)


def _sign(x):
    return (x > 0) - (x < 0)


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


def _rows(points, apex, lift):
    """Rows p - apex (plus |p - apex|^2 when lifted) in Fractions."""
    rows = []
    for p in points:
        v = [Fraction(x) - Fraction(y) for x, y in zip(p, apex)]
        rows.append(v + [sum(x * x for x in v)] if lift else v)
    return rows


def exact_orient2d(a, b, c):
    (ax, ay), (bx, by) = _rows((a, b), c, False)
    return _sign(ax * by - ay * bx)


def exact_orient3d(a, b, c, d):
    return _sign(_det3(_rows((a, b, c), d, False)))


def exact_incircle(a, b, c, p):
    return _sign(_det3(_rows((a, b, c), p, True)))


def exact_insphere(a, b, c, d, e):
    return _sign(_det4(_rows((a, b, c, d), e, True)))


def exact_in_diametral_ball(face, q):
    """+1 when q lies strictly inside the smallest circumball of ``face``
    (an edge, or a non-degenerate triangle in R^3), 0 on its sphere, -1
    outside, in Fractions. The center is the edge's midpoint, or the point
    a + o of the triangle's plane with 2 u.o = |u|^2, 2 v.o = |v|^2 and
    (u x v).o = 0 for u = b - a and v = c - a, by Cramer's rule."""
    pts = [[Fraction(x) for x in p] for p in face]
    if len(pts) == 2:
        center = [(x + y) / 2 for x, y in zip(*pts)]
    else:
        a, b, c = pts
        u = [y - x for x, y in zip(a, b)]
        v = [y - x for x, y in zip(a, c)]
        normal = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                  u[0] * v[1] - u[1] * v[0]]
        rows = [[2 * x for x in u], [2 * x for x in v], normal]
        rhs = [sum(x * x for x in u), sum(x * x for x in v), 0]
        det = _det3(rows)
        center = [x + _det3([row[:i] + [r] + row[i + 1:]
                             for row, r in zip(rows, rhs)]) / det
                  for i, x in enumerate(a)]
    r2 = sum((x - y) ** 2 for x, y in zip(pts[0], center))
    return _sign(r2 - sum((Fraction(x) - y) ** 2 for x, y in zip(q, center)))


def closure_of(top_simplices):
    """All non-empty faces of the given simplices, as a set of tuples."""
    out = set()
    for top in top_simplices:
        for k in range(1, len(top) + 1):
            out.update(itertools.combinations(top, k))
    return out


def shared_facets(simplices):
    """(i, q) for every facet shared by two simplices, by a dict from each
    sorted facet to the simplices holding it: i is the first holder and q
    the next holder's vertex opposite the facet. Sorted like
    ``interior_facets``: by facet, then by simplex index."""
    holders = {}
    for i, verts in enumerate(simplices):
        verts = sorted(verts)
        for q in verts:
            holders.setdefault(tuple(v for v in verts if v != q), []).append((i, q))
    return [(a[0], b[1]) for facet in sorted(holders)
            for a, b in zip(holders[facet], holders[facet][1:])]


def _integer_points(points):
    """The points' coordinates times one common power of two 2**shift that
    makes them all integers, as tuples of ints; and shift."""
    fracs = [[Fraction(float(x)) for x in p] for p in points]
    shift = max(x.denominator for p in fracs for x in p).bit_length() - 1
    return [tuple(int(x * 2 ** shift) for x in p) for p in fracs], shift


def _dot(x, y):
    return sum(s * t for s, t in zip(x, y))


def exact_circumball(points):
    """The smallest circumball of affinely independent integer points P0, ...,
    Pk as (m, g): its center is P0 + m / (2g) for the int vector m and the
    int g > 0, so its squared diameter is |m|^2 / g^2. With v_i = Pi - P0,
    g is the Gram determinant det(v_i . v_j) and m = sum_i y_i v_i for
    y = adj(G) (|v_i|^2), by Cramer's rule."""
    p0 = points[0]
    vs = [tuple(a - b for a, b in zip(p, p0)) for p in points[1:]]
    gram = [[_dot(x, y) for y in vs] for x in vs]
    lifts = [_dot(x, x) for x in vs]
    k = len(vs)
    if k == 1:
        adj = [[1]]
        g = gram[0][0]
    elif k == 2:
        (a, b), (c, d) = gram
        adj = [[d, -b], [-c, a]]
        g = a * d - b * c
    else:
        adj = [[gram[(j + 1) % 3][(i + 1) % 3] * gram[(j + 2) % 3][(i + 2) % 3]
                - gram[(j + 1) % 3][(i + 2) % 3] * gram[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)] for i in range(3)]
        g = sum(gram[0][j] * adj[j][0] for j in range(3))
    y = [sum(adj[i][j] * lifts[j] for j in range(k)) for i in range(k)]
    m = tuple(sum(y[i] * vs[i][c] for i in range(k)) for c in range(len(p0)))
    return m, g


def _ratio(num, den, shift):
    """num / (den * 2**shift), correctly rounded, for ints num and den."""
    return num / (den << shift) if shift >= 0 else (num << -shift) / den


def exact_alpha(cloud):
    """Exact Alpha data of every Delaunay face of dimension >= 1, from
    integer arithmetic and a Gabriel scan over all points: a dict from
    vertex tuples to (value, own, gabriel), with value and own the squared
    Alpha value and the squared circumdiameter as Fractions (diameter
    convention). A face is Gabriel when no other point lies strictly inside
    its smallest circumball; top simplices and Gabriel faces take their own
    value, any other face the minimum of its cofaces' values.

    A k-d tree over all points, in coordinates scaled by a power of two,
    picks the candidates: every point within a relative 1e-6 of the ball,
    plus a margin for the rounded center. Each candidate is then tested
    exactly."""
    dc = delaunay(cloud)
    d = cloud.dim
    ints, shift = _integer_points(cloud.points)
    raw = cloud.as_array()
    exponent = math.frexp(float(np.abs(raw).max()))[1]
    pts = np.ldexp(raw, -exponent)  # == ints / 2**(shift + exponent)
    faces = [verts for k in range(1, d + 1) for verts in dc.simplices_of_dim(k)]
    balls = [exact_circumball([ints[v] for v in verts]) for verts in faces]
    offsets = np.array([[_ratio(x, 2 * g, shift + exponent) for x in m]
                        for m, g in balls])
    centers = pts[[verts[0] for verts in faces]] + offsets
    radii = np.sqrt((offsets ** 2).sum(axis=1))
    near = cKDTree(pts).query_ball_point(
        centers, radii * (1 + 1e-6) + 1e-14 * (1 + np.abs(centers).max(axis=1)))
    cofaces = {}
    for verts in faces:
        for i in range(len(verts) if len(verts) > 2 else 0):
            cofaces.setdefault(verts[:i] + verts[i + 1:], []).append(verts)
    out = {}
    for verts, (m, g), candidates in reversed(list(zip(faces, balls, near))):
        p0 = ints[verts[0]]
        gabriel = True
        for q in set(candidates) - set(verts):
            w = tuple(a - b for a, b in zip(ints[q], p0))
            if _dot(w, w) * g < _dot(w, m):
                gabriel = False
                break
        own = Fraction(_dot(m, m), g * g << 2 * shift)
        value = own
        if verts in cofaces and not gabriel:
            value = min(out[cf][0] for cf in cofaces[verts])
        out[verts] = (value, own, gabriel)
    return out


def alpha_disagreements(entries, exact, rel=1e-12):
    """The faces of Alpha filtration ``entries`` that disagree with
    ``exact_alpha``, as (vertices, reason) pairs: a face set other than the
    Delaunay faces up to the top dimension of the entries, a value more
    than ``rel`` (relative) from the exact one, a Gabriel face more than
    ``rel`` from its own circumdiameter, or a face of dimension >= 1 above
    its cofaces' minimum in the entries or, when not Gabriel, not equal to
    it."""
    scale = dict(entries)
    top = max(len(verts) for verts in scale)
    lo, hi = (1 - rel) ** 2, (1 + rel) ** 2
    bad = [(verts, "not a Delaunay face") for verts in scale
           if len(verts) > 1 and verts not in exact]
    bad += [(verts, "missing") for verts in exact
            if len(verts) <= top and verts not in scale]
    cofaces = {}
    for verts in scale:
        for i in range(len(verts) if len(verts) > 2 else 0):
            cofaces.setdefault(verts[:i] + verts[i + 1:], []).append(verts)
    for verts, s in scale.items():
        if len(verts) == 1:
            bad += [(verts, "vertex not at 0")] if s != 0.0 else []
        if verts not in exact:
            continue
        value, own, gabriel = exact[verts]
        if not lo <= float(Fraction(s) ** 2 / value) <= hi:
            bad.append((verts, "value"))
        if gabriel and not lo <= float(Fraction(s) ** 2 / own) <= hi:
            bad.append((verts, "Gabriel face not at its circumdiameter"))
        if verts in cofaces:
            low = min(scale[cf] for cf in cofaces[verts])
            if s > low or (not gabriel and s != low):
                bad.append((verts, "coface minimum"))
    return bad


def persistence_image_loop(pairs, grid):
    """Persistence image by one pair at a time, two list comprehensions of
    ``math.erf`` each, summed in pair order."""
    rows, cols = grid.resolution
    b0, b1 = grid.birth_range
    p0, p1 = grid.persistence_range
    xs = np.linspace(b0, b1, cols + 1)
    ys = np.linspace(p0, p1, rows + 1)
    s = grid.sigma * math.sqrt(2.0)
    img = np.zeros((rows, cols))
    for b, d in pairs:
        if not math.isfinite(d):
            continue
        pers = d - b
        w = pers / p1
        if w == 0.0:
            continue
        cx = 0.5 * (1.0 + np.array([math.erf((x - b) / s) for x in xs]))
        cy = 0.5 * (1.0 + np.array([math.erf((y - pers) / s) for y in ys]))
        img += w * np.outer(np.diff(cy), np.diff(cx))
    return img.reshape(-1)


def boundary_columns(entries):
    """Each entry's sorted face indices by a dict from vertex tuples to
    positions, with the package's error types and messages: for the first
    offending entry UnsortedFiltration or "listed twice", then "is missing"
    or "appears after" for the first offending face."""
    index = {}
    prev = ()
    for j, entry in enumerate(entries):
        if entry[0] in index:
            raise InvalidFiltration(f"simplex {entry[0]} listed twice")
        key = (entry[1], len(entry[0]), entry[0])
        if key < prev:
            raise UnsortedFiltration(
                f"{entry[0]} is out of order (use sort_filtration)")
        index[entry[0]] = j
        prev = key
    columns = []
    for j, (verts, scale) in enumerate(entries):
        col = []
        for face in simplex_faces(verts):
            i = index.get(face)
            if i is None:
                raise InvalidFiltration(f"face {face} of {verts} is missing")
            if i > j:
                raise InvalidFiltration(
                    f"face {face} (scale {entries[i][1]}) appears after "
                    f"coface {verts} (scale {scale})")
            col.append(i)
        col.sort()
        columns.append(tuple(col))
    return columns
