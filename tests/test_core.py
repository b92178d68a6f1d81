import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import delrips
from delrips import (Filtration, PersistenceDiagram, PointCloud, bottleneck,
                     sort_filtration)
from delrips.core import pairwise_distances
from delrips.errors import InvalidFiltration, ValidationError

SQ3 = math.sqrt(3.0)


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


@pytest.mark.parametrize("points, want", [
    ([(0, 0, 0), (1, 2, 3)], ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))),
    ([[0.5, -1.0], [2.0, 1e300]], ((0.5, -1.0), (2.0, 1e300))),
    (np.array([[1, 2], [3, 4]]), ((1.0, 2.0), (3.0, 4.0))),
    (np.array([[0.1, -0.0, 2.0 ** -1074]]), ((0.1, -0.0, 2.0 ** -1074),)),
    (np.array([[0.1, 0.2]], dtype=np.float32),
     ((float(np.float32(0.1)), float(np.float32(0.2))),)),
    ([(2 ** 70 + 1, 3)], ((float(2 ** 70 + 1), 3.0),)),
    ((p for p in [(1, 2), (3, 4)]), ((1.0, 2.0), (3.0, 4.0))),
])
def test_from_points_makes_python_floats(points, want):
    pc = PointCloud.from_points(points)
    assert pc.points == want and pc.dim == len(want[0])
    assert all(type(x) is float for p in pc.points for x in p)
    assert [[x.hex() for x in p] for p in pc.points] == [
        [x.hex() for x in p] for p in want]


@pytest.mark.parametrize("points, message", [
    ([], "point cloud is empty"),
    (np.empty((0, 3)), "point cloud is empty"),
    ([(1.0,), (2.0,)], "ambient dimension must be 2 or 3, got 1"),
    (np.zeros((3, 4)), "ambient dimension must be 2 or 3, got 4"),
    ([(0.0, 0.0), (1.0, 2.0, 3.0)], "point (1.0, 2.0, 3.0) does not have 2 coordinates"),
    ([(0, 0, 0), (1, 2)], "point (1.0, 2.0) does not have 3 coordinates"),
    ([(0.0, 0.0), (0.0, math.nan)], "non-finite coordinate in point (0.0, nan)"),
    (np.array([[1.0, 2.0, 3.0], [np.inf, 0, 0]]),
     "non-finite coordinate in point (inf, 0.0, 0.0)"),
    ([(1, 2), (3, -math.inf)], "non-finite coordinate in point (3.0, -inf)"),
    # The earliest bad point is named, whichever check it fails.
    ([(0.0, math.nan), (1.0,)], "non-finite coordinate in point (0.0, nan)"),
    ([(0.0, 0.0), (1.0,), (math.nan, 0.0)], "point (1.0,) does not have 2 coordinates"),
])
def test_from_points_rejects_with_the_same_messages(points, message):
    with pytest.raises(ValidationError) as exc:
        PointCloud.from_points(points)
    assert str(exc.value) == message


@pytest.mark.parametrize("points, error", [
    ([(1.0, None)], TypeError), ([("a", "2")], ValueError),
    ([1.0, 2.0], TypeError), (np.zeros((2, 2, 2)), TypeError),
])
def test_from_points_raises_as_float_does(points, error):
    # What float() cannot convert raises as float() does (a point file
    # reader maps these to its own error), never as a cloud of NaNs.
    with pytest.raises(error):
        PointCloud.from_points(points)


def test_sort_vertices_before_edge_any_input_order():
    filt = Filtration(entries=(((0, 1), 1.0), ((1,), 0.0), ((0,), 0.0)),
                      max_dim=1)
    out = sort_filtration(filt)
    assert [verts for verts, _ in out.entries] == [(0,), (1,), (0, 1)]


def test_sort_lexicographic_tie_break():
    entries = (((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
               ((0, 2), 1.0), ((0, 1), 1.0))
    out = sort_filtration(Filtration(entries=entries, max_dim=1))
    assert [verts for verts, _ in out.entries[-2:]] == [(0, 1), (0, 2)]


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
    assert [verts for verts, _ in out.entries] == [
        (0,), (1,), (2,), (3,), (1, 3), (2, 3), (0, 1), (0, 2), (0, 3),
        (0, 1, 3), (0, 2, 3)]


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
    assert [dim for dim, _, _ in diag.entries] == [0, 0, 1]
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


def test_np_lexsort_only_in_the_one_row_order():
    # Every face lookup sorts its rows by core._row_order; a lexsort
    # anywhere else in the package would be a second row order.
    sites = []
    for path in sorted(Path(delrips.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    owner.setdefault(node, func.name)
        sites += [(path.name, owner.get(node)) for node in ast.walk(tree)
                  if getattr(node, "attr", getattr(node, "id", "")) == "lexsort"]
    assert sites == [("core.py", "_row_order")]


def test_every_module_level_import_is_used():
    # No linter runs on the package, so an import left behind by a deletion
    # (say ``itertools.chain`` once nothing chains) would go unnoticed.
    unused = []
    for path in sorted(Path(delrips.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if (isinstance(stmt, (ast.Import, ast.ImportFrom))
                    and getattr(stmt, "module", None) != "__future__"):
                unused += [(path.name, alias.name) for alias in stmt.names
                           if (alias.asname or alias.name.split(".")[0])
                           not in used]
    assert unused == []
