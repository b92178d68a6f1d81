"""Independent brute-force implementations used only as test oracles.

Nothing here imports the package's builders or reduction: the Rips oracle
enumerates the full powerset and reduces a dense GF(2) matrix with numpy,
the bottleneck oracles enumerate every partial bijection or run scipy's
bipartite matching on the standard diagonal-copy reduction, the image
oracle integrates by midpoint quadrature, the predicate oracles expand
each determinant by cofactors in exact rational arithmetic, and the column
addition oracle is a two-pointer merge. The face oracles enumerate vertex
combinations into sets and dicts; the Alpha oracle keeps a dict of coface
tuples over the package's triangulation, circumsphere and Gabriel test.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from delrips import delaunay
from delrips.filtration import _is_gabriel
from delrips.geometry import circumsphere


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


def naive_alpha_entries(cloud, cap):
    """Alpha filtration entries up to dimension ``cap`` (diameter
    convention), canonically sorted: radii top-down over a dict of coface
    tuples, a Gabriel face at its circumradius capped at the coface
    minimum, any other face at that minimum."""
    dc = delaunay(cloud)
    pts = cloud.as_array()
    d = cloud.dim
    by_dim = {k: dc.simplices_of_dim(k) for k in range(d + 1)}
    cofaces = {}
    for k in range(1, d + 1):
        for verts in by_dim[k]:
            for i in range(len(verts)):
                face = verts[:i] + verts[i + 1:]
                cofaces.setdefault(face, []).append(verts)
    radius = {}
    for k in range(d, 0, -1):
        for verts in by_dim[k]:
            center, r = circumsphere([pts[v] for v in verts])
            if k < d:
                low = min(radius[cf] for cf in cofaces[verts])
                gabriel = _is_gabriel(pts, verts, np.asarray(center))
                r = min(r, low) if gabriel else low
            radius[verts] = r
    entries = [((i,), 0.0) for i in range(len(cloud))]
    for verts, r in radius.items():
        if len(verts) - 1 <= cap:
            entries.append((verts, 2.0 * r))
    entries.sort(key=lambda e: (e[1], len(e[0]), e[0]))
    return tuple(entries)
