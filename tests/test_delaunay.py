import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import delrips
from conftest import random_cloud
from delrips import PointCloud, delaunay, near_cocircular_quad
from delrips.core import _packed_keys
from delrips.delaunay import (_certify, _prescaled, _Triangulation,
                              facet_incidence, interior_facets)
from delrips.errors import (AffinelyDegenerateInput, CertificateError,
                            DuplicatePoints, TooFewPoints)
from delrips.predicates import (_cloud_predicates, incircle, insphere,
                                orient2d, orient3d)
from naive_oracle import closure_of, lexsort_facet_incidence, shared_facets


def _inside_ball(top, pts, q):
    coords = [pts[v] for v in top]
    if len(top) == 3:
        return incircle(*coords, q) * orient2d(*coords)
    return insphere(*coords, q) * orient3d(*coords)


def _faces(dc, k):
    return [tuple(face) for face in dc.faces(k).tolist()]


def assert_empty_circumballs(dc):
    pts = dc.cloud.points
    for top in dc.top_simplices:
        for i, q in enumerate(pts):
            if i in top:
                continue
            assert _inside_ball(top, pts, q) <= 0, (top, i)


def test_three_points_single_triangle():
    dc = delaunay(PointCloud.from_points([(0, 0), (2, 0), (1, 5)]))
    assert dc.top_simplices == ((0, 1, 2),)
    assert closure_of(dc.top_simplices) == {(0,), (1,), (2,), (0, 1), (0, 2),
                                            (1, 2), (0, 1, 2)}
    assert not dc.degenerate


def test_unit_square_degenerate_single_diagonal():
    dc = delaunay(PointCloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert dc.degenerate
    edges = _faces(dc, 1)
    diagonals = [e for e in edges if e in ((0, 2), (1, 3))]
    assert len(diagonals) == 1  # exactly one diagonal, picked by tie-break
    assert len(dc.top_simplices) == 2
    # Determinism: same input gives byte-identical output.
    dc2 = delaunay(PointCloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert dc2.top_simplices == dc.top_simplices


def test_quad_inside_circle_edge_set():
    dc = delaunay(near_cocircular_quad(0.1))
    edges = _faces(dc, 1)
    assert edges == [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    assert dc.top_simplices == ((0, 1, 3), (0, 2, 3))
    assert not dc.degenerate


def test_quad_outside_circle_flips_edge():
    dc = delaunay(near_cocircular_quad(-0.1))
    edges = _faces(dc, 1)
    assert (1, 2) in edges and (0, 3) not in edges
    assert dc.top_simplices == ((0, 1, 2), (1, 2, 3))


def test_error_too_few_points():
    with pytest.raises(TooFewPoints):
        delaunay(PointCloud.from_points([(0, 0), (1, 1)]))
    with pytest.raises(TooFewPoints):
        delaunay(PointCloud.from_points([(0, 0, 0), (1, 1, 1), (2, 0, 1)]))


def test_error_duplicates():
    with pytest.raises(DuplicatePoints):
        delaunay(PointCloud.from_points([(0, 0), (1, 1), (0, 0)]))


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -664, 2.0 ** 532])
@pytest.mark.parametrize("dim", [2, 3])
def test_duplicates_named_at_every_scale(scale, dim):
    # The check runs on the prescaled points; the scaling is exact and
    # one-to-one, so the same points coincide at every scale.
    pts = np.random.default_rng(dim).uniform(-1.0, 1.0, (12, dim))
    pts[9] = pts[4]
    pts[11] = pts[2]
    with pytest.raises(DuplicatePoints, match=r"^points 4 and 9 coincide$"):
        delaunay(PointCloud.from_points(pts * scale))
    pts[9, 0], pts[4, 0] = 0.0, -0.0  # signed zeros coincide too
    with pytest.raises(DuplicatePoints, match=r"^points 4 and 9 coincide$"):
        delaunay(PointCloud.from_points(pts * scale))
    with pytest.raises(DuplicatePoints, match=r"^points 0 and 1 coincide$"):
        delaunay(PointCloud.from_points(np.zeros((dim + 1, dim))))


def test_error_affinely_degenerate():
    with pytest.raises(AffinelyDegenerateInput):
        delaunay(PointCloud.from_points([(0, 0), (1, 1), (2, 2), (3, 3)]))
    with pytest.raises(AffinelyDegenerateInput):
        delaunay(PointCloud.from_points(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]))


def test_collinear_point_on_hull_edge():
    dc = delaunay(PointCloud.from_points([(0, 0), (1, 0), (2, 0), (1, 1)]))
    assert dc.top_simplices == ((0, 1, 3), (1, 2, 3))
    assert_empty_circumballs(dc)


def test_integer_grid_degenerate_but_valid():
    pts = [(float(i), float(j)) for i in range(4) for j in range(4)]
    dc = delaunay(PointCloud.from_points(pts))
    assert dc.degenerate
    assert len(dc.top_simplices) == 18  # 2*(n-1)^2 triangles tile the square
    assert_empty_circumballs(dc)
    _check_2d_structure(dc)


def _hull_area(points):
    """Shoelace area of the convex hull (monotone chain)."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) > 1 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    area = 0.0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


def _check_2d_structure(dc):
    pts = list(map(tuple, dc.cloud.points.tolist()))
    n = len(pts)
    edges = set(_faces(dc, 1))
    tris = dc.top_simplices
    assert len(edges) <= 3 * n - 6
    assert len(tris) <= 2 * n - 5
    tri_area = sum(
        abs((pts[b][0] - pts[a][0]) * (pts[c][1] - pts[a][1])
            - (pts[b][1] - pts[a][1]) * (pts[c][0] - pts[a][0])) / 2.0
        for a, b, c in tris)
    assert tri_area == pytest.approx(_hull_area(pts), rel=1e-9)
    # Euler characteristic of a triangulated disk.
    assert n - len(edges) + len(tris) == 1


def test_random_2d_clouds_are_delaunay(rng):
    for trial in range(8):
        n = int(rng.integers(4, 51))
        dc = delaunay(random_cloud(rng, n))
        assert_empty_circumballs(dc)
        _check_2d_structure(dc)
        assert _faces(dc, 0) == [(i,) for i in range(n)]


def test_random_3d_clouds_are_delaunay(rng):
    for trial in range(5):
        n = int(rng.integers(5, 31))
        dc = delaunay(random_cloud(rng, n, dim=3))
        assert_empty_circumballs(dc)
        assert _faces(dc, 0) == [(i,) for i in range(n)]
        triangles = set(_faces(dc, 2))
        for top in dc.top_simplices:
            for face in combinations(top, 3):
                assert face in triangles


def test_3d_grid_degenerate_but_valid():
    pts = [(float(i), float(j), float(k))
           for i in range(3) for j in range(3) for k in range(2)]
    dc = delaunay(PointCloud.from_points(pts))
    assert dc.degenerate
    assert_empty_circumballs(dc)
    # Tetra volumes must tile the 2x2x1 box.
    vol = 0.0
    a = np.array(pts)
    for t in dc.top_simplices:
        m = a[list(t[1:])] - a[t[0]]
        vol += abs(np.linalg.det(m)) / 6.0
    assert vol == pytest.approx(4.0, rel=1e-9)


def test_deterministic_across_runs(rng):
    cloud = random_cloud(rng, 30)
    a = delaunay(cloud)
    b = delaunay(cloud)
    assert a.top_simplices == b.top_simplices
    assert a.degenerate == b.degenerate


def test_scan_locate_matches_walk(rng):
    # The global-scan fallback must find a conflicting simplex for a point
    # that is not yet inserted, like the walk does.
    cloud = random_cloud(rng, 20)
    pts = tuple(map(tuple, cloud.points.tolist()))
    from delrips.delaunay import _initial_vertices
    predicates = _cloud_predicates(pts)
    init = _initial_vertices(pts, 2, predicates[0])
    tri = _Triangulation(cloud.points, pts, init, predicates)
    for p in range(len(pts)):
        if p in init:
            continue
        walked = tri._locate(p)
        scanned = tri._locate_scan(p)
        inball = tri.inball_from(p)
        assert tri._conflicts(walked, p, inball)
        assert tri._conflicts(scanned, p, inball)
        tri.insert(p)


DELAUNAY_MODULE = sys.modules[_Triangulation.__module__]


def _positive(pts, simplex):
    return simplex if orient2d(*[pts[v] for v in simplex]) > 0 else simplex[::-1]


def test_certificate_rejects_non_delaunay_diagonal():
    pts = near_cocircular_quad(0.1).points
    delaunay_tris = [_positive(pts, t) for t in ((0, 1, 3), (0, 2, 3))]
    other_tris = [_positive(pts, t) for t in ((0, 1, 2), (1, 2, 3))]
    assert _certify(pts, delaunay_tris)[2] is False
    with pytest.raises(CertificateError, match="not locally Delaunay"):
        _certify(pts, other_tris)
    with pytest.raises(CertificateError, match="not positively oriented"):
        _certify(pts, [delaunay_tris[0], delaunay_tris[1][::-1]])


def test_certificate_flags_cospherical_facet():
    pts = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    assert _certify(pts, [_positive(pts, t) for t in ((0, 1, 2), (0, 2, 3))])[2]


@pytest.mark.parametrize("dim", [2, 3])
def test_flipped_inball_sign_trips_certificate(dim, rng, monkeypatch):
    real = DELAUNAY_MODULE.inball_signs
    monkeypatch.setattr(DELAUNAY_MODULE, "inball_signs", lambda s, q: -real(s, q))
    with pytest.raises(CertificateError):
        delaunay(random_cloud(rng, 30, dim=dim))


def test_certificate_runs_under_optimize():
    # The check is an explicit raise, not an assert, so -O keeps it.
    code = (
        "import sys\n"
        "import delrips\n"
        "from delrips.errors import CertificateError\n"
        "mod = sys.modules['delrips.delaunay']\n"
        "real = mod.inball_signs\n"
        "mod.inball_signs = lambda s, q: -real(s, q)\n"
        "cloud = delrips.PointCloud.from_points([(0, 0), (1, 0), (0, 1), (1, 1.1)])\n"
        "try:\n"
        "    delrips.delaunay(cloud)\n"
        "except CertificateError:\n"
        "    print('raised', sys.flags.optimize)\n")
    src = str(Path(delrips.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["raised", "1"]


def test_prescale_is_exact_or_skipped():
    def scaled(points):
        # The array and the tuples hold the same floats.
        array, tuples = _prescaled(points)
        assert bits(array.tolist()) == bits(tuples)
        return tuples

    def bits(points):
        return [[x.hex() for x in p] for p in points]

    assert scaled(((3.0, -0.25), (1e-3, 0.0))) == (
        (0.75, -0.0625), (0.25e-3, 0.0))
    unit = ((0.5, -0.75), (0.0, 0.25))
    assert bits(scaled(unit)) == bits(unit)
    # 1e-20 * 2**-997 would be subnormal, so the scaling would round it.
    wide = ((1e300, 0.0), (0.0, 1e-20))
    assert bits(scaled(wide)) == bits(wide)


@pytest.mark.parametrize("dim", [2, 3])
def test_faces_per_dimension_match_the_closure(dim, rng):
    dc = delaunay(random_cloud(rng, 40, dim=dim))
    closure = closure_of(dc.top_simplices)
    for k in range(dim + 2):
        got = _faces(dc, k)
        assert got == sorted({s for s in closure if len(s) == k + 1})
        assert dc.faces(k).shape == (len(got), k + 1)
    assert tuple(_faces(dc, dim)) == dc.top_simplices


@pytest.mark.parametrize("dim", [2, 3])
def test_faces_outside_the_dimensions_are_empty(dim, rng):
    dc = delaunay(random_cloud(rng, 12, dim=dim))
    for k, width in ((-2, 0), (-1, 0), (dim + 1, dim + 2)):
        assert dc.faces(k).shape == (0, width)
        assert dc.faces(k).dtype == np.int64


@pytest.mark.parametrize("dim", [2, 3])
def test_facet_incidence_lists_faces_and_opposite_vertices(dim, rng):
    for n in (dim + 1, 12, 40):
        dc = delaunay(random_cloud(rng, n, dim=dim))
        closure = closure_of(dc.top_simplices)
        for k in range(1, dim + 1):
            rows = dc.faces(k)
            facets, facet_row, owner, opposite = facet_incidence(rows)
            assert facets.tolist() == sorted(
                list(s) for s in closure if len(s) == k)
            assert len(facet_row) == len(owner) == len(opposite) == rows.size
            assert (np.diff(facet_row) >= 0).all()
            for f, r, q in zip(facet_row.tolist(), owner.tolist(),
                               opposite.tolist()):
                assert sorted(facets[f].tolist() + [q]) == rows[r].tolist()
            # every (owner, opposite) incidence appears exactly once
            assert sorted(zip(owner.tolist(), opposite.tolist())) == sorted(
                (r, q) for r, row in enumerate(rows.tolist()) for q in row)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lo,span", [(0, 2 ** 21), (2 ** 40, 2 ** 40),
                                     (-2 ** 62, 2 ** 63)])
def test_facet_incidence_matches_lexsort_on_wide_ids(dim, lo, span, rng):
    # Ids spanning 2**21 or more pack at most two columns per uint64 sort
    # key, so the rows of three or more columns compare several keys.
    dc = delaunay(random_cloud(rng, 40, dim=dim))
    ids = np.unique(np.concatenate([[lo, lo + span],
                                    lo + rng.integers(1, span, 60)]))[:40]
    ids[-1] = lo + span
    for k in range(1, dim + 1):
        rows = ids[dc.faces(k)][rng.permutation(len(dc.faces(k)))]
        if k >= 2:
            assert len(_packed_keys(rows)) > 1
        got = facet_incidence(rows)
        want = lexsort_facet_incidence(rows)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("dim", [2, 3])
def test_interior_facets_match_dict_reference(dim, rng):
    for n in (dim + 2, 15, 50):
        tops = np.array(delaunay(random_cloud(rng, n, dim=dim)).top_simplices)
        shuffled = rng.permuted(tops[rng.permutation(len(tops))], axis=1)
        got = interior_facets(facet_incidence(np.sort(shuffled, axis=1)))
        assert got.tolist() == [list(f) for f in shared_facets(shuffled.tolist())]
        # every facet lies on one simplex (hull) or two (interior)
        assert len(got) == tops.size - len(facet_incidence(tops)[0])
