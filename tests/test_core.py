import math
import sys

import numpy as np
import pytest

from delrips import (Filtration, PersistenceDiagram, PointCloud, bottleneck,
                     make_simplex, sort_filtration)
from delrips.core import pairwise_distances, simplex_faces
from delrips.errors import InvalidFiltration, ValidationError

SQ3 = math.sqrt(3.0)


def test_make_simplex_sorts_and_validates():
    assert make_simplex([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(ValidationError):
        make_simplex([])
    with pytest.raises(ValidationError):
        make_simplex([1, 1])
    with pytest.raises(ValidationError):
        make_simplex([-1, 0])


def test_simplex_faces():
    assert list(simplex_faces((0, 1, 2))) == [(0, 1), (0, 2), (1, 2)]
    assert list(simplex_faces((4,))) == []


def test_point_cloud_validation():
    with pytest.raises(ValidationError):
        PointCloud.from_points([])
    with pytest.raises(ValidationError):
        PointCloud.from_points([(1.0,)])  # 1D not supported
    with pytest.raises(ValidationError):
        PointCloud.from_points([(0.0, math.nan)])
    with pytest.raises(ValidationError):
        PointCloud(points=((0.0, 0.0), (1.0,)), dim=2)
    pc = PointCloud.from_points([(0, 0, 0), (1, 2, 3)])
    assert pc.dim == 3 and len(pc) == 2 and pc[1] == (1.0, 2.0, 3.0)


def test_sort_vertices_before_edge_any_input_order():
    filt = Filtration(entries=(((0, 1), 1.0), ((1,), 0.0), ((0,), 0.0)),
                      max_dim=1)
    out = sort_filtration(filt)
    assert out.simplices() == ((0,), (1,), (0, 1))


def test_sort_lexicographic_tie_break():
    entries = (((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
               ((0, 2), 1.0), ((0, 1), 1.0))
    out = sort_filtration(Filtration(entries=entries, max_dim=1))
    assert out.simplices()[-2:] == ((0, 1), (0, 2))


def test_sort_four_point_filtration_order():
    # a=0, b=1, c=2, d=3 at x=0.1: scales force the order
    # a,b,c,d, bd, cd, ab, ac, ad, abd, acd.
    x = 0.1
    s_near = math.sqrt(1 - x + x * x)
    entries = [((i,), 0.0) for i in range(4)]
    entries += [((1, 3), s_near), ((2, 3), s_near),
                ((0, 1), SQ3), ((0, 2), SQ3), ((0, 3), 2 - x),
                ((0, 1, 3), 2 - x), ((0, 2, 3), 2 - x)]
    shuffled = Filtration(entries=tuple(reversed(entries)), max_dim=2)
    out = sort_filtration(shuffled)
    assert out.simplices() == (
        (0,), (1,), (2,), (3,), (1, 3), (2, 3), (0, 1), (0, 2), (0, 3),
        (0, 1, 3), (0, 2, 3))


def test_sort_idempotent_and_preserves_multiset():
    entries = (((0,), 0.0), ((1,), 0.0), ((0, 1), 2.0))
    once = sort_filtration(Filtration(entries=entries, max_dim=1))
    twice = sort_filtration(once)
    assert once == twice
    assert sorted(once.entries) == sorted(entries)


def test_sort_rejects_missing_face():
    filt = Filtration(entries=(((0,), 0.0), ((0, 1), 1.0)), max_dim=1)
    with pytest.raises(InvalidFiltration, match="missing"):
        sort_filtration(filt)


def test_sort_rejects_nonmonotone_scale():
    filt = Filtration(entries=(((0,), 0.0), ((1,), 2.0), ((0, 1), 1.0)),
                      max_dim=1)
    with pytest.raises(InvalidFiltration, match="appears after"):
        sort_filtration(filt)


def test_sort_rejects_duplicates():
    filt = Filtration(entries=(((0,), 0.0), ((0,), 0.0)), max_dim=0)
    with pytest.raises(InvalidFiltration, match="twice"):
        sort_filtration(filt)


def test_filtration_rejects_overcap_and_bad_scale():
    with pytest.raises(ValidationError):
        Filtration(entries=(((0, 1), 1.0),), max_dim=0)
    with pytest.raises(ValidationError):
        Filtration(entries=(((0,), -1.0),), max_dim=0)


def test_diagram_pairs_and_views():
    diag = PersistenceDiagram.from_pairs({0: [(0.0, 1.0), (0.0, math.inf)],
                                          1: [(2.0, 2.0)]})
    assert diag.pairs(0) == ((0.0, 1.0), (0.0, math.inf))
    assert diag.pairs(1) == ((2.0, 2.0),)
    assert diag.dims() == (0, 1)
    assert diag.drop_zero().pairs(1) == ()
    assert diag.drop_zero().pairs(0) == diag.pairs(0)
    assert len(diag) == 3
    with pytest.raises(ValidationError):
        PersistenceDiagram.from_pairs({0: [(1.0, 0.5)]})


@pytest.mark.parametrize("birth", [-math.inf, math.inf])
def test_rejects_infinite_birth(birth):
    # Deaths may be inf (essential classes), births may not: the bottleneck
    # would subtract inf from inf.
    with pytest.raises(ValidationError):
        PersistenceDiagram.from_pairs({0: [(birth, math.inf)]})
    with pytest.raises(ValidationError):
        bottleneck([(birth, 1.0)], [(birth, 2.0)])
    with pytest.raises(ValidationError):
        bottleneck([(0.0, 1.0)], [(birth, math.inf)])


def test_pairwise_distances_matches_math_dist():
    pc = PointCloud.from_points([(0, 0), (3, 4), (1, 1)])
    mat = pairwise_distances(pc)
    assert mat[0][1] == 5.0
    assert mat[1][0] == 5.0
    assert mat[2][2] == 0.0
    assert mat[0][2] == pytest.approx(math.sqrt(2.0), abs=0)


def _point_distance(p, q):
    # The per-pair loop formula the numpy kernel replaced: the reference.
    diffs = [a - b for a, b in zip(p, q)]
    s = diffs[0] * diffs[0] + diffs[1] * diffs[1]
    if len(diffs) == 3:
        s = s + diffs[2] * diffs[2]
    return math.sqrt(s) if sys.float_info.min <= s < math.inf else math.hypot(*diffs)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 123.456, 2.0 ** 532, 2.0 ** -664])
def test_pairwise_distances_equal_scalar_formula(dim, scale):
    pts = np.random.default_rng(dim).standard_normal((70, dim)) * scale
    pts[5] = pts[4]  # a repeated point: distance exactly 0.0
    pc = PointCloud.from_points(pts)
    mat = pairwise_distances(pc)
    want = [[_point_distance(p, q) for q in pc.points] for p in pc.points]
    assert mat == want
    assert mat[4][5] == 0.0 and all(math.isfinite(x) for row in mat for x in row)
