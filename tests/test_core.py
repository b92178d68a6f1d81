import ast
import dataclasses
import math
import pickle
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import delrips
from delrips import core
from delrips import (Filtration, FiltrationSpec, PersistenceDiagram,
                     PerturbationPairing, PointCloud, ShapeClass, add_noise,
                     bottleneck, boundary_matrix, build, delaunay, sample_shape,
                     sort_filtration)
from delrips.bench import run_cell, run_grid
from delrips.cli import main
from delrips.core import pairwise_distances
from delrips.datagen import near_cocircular_quad
from delrips.errors import InvalidFiltration, ValidationError
from delrips.fileio import fmt_float
from delrips.geometry import epsilon_perturb
from delrips.vectorize import (PIGrid, persistence_stats, persistent_entropy,
                               stats_feature_vector)
from families import uniform

SQ3 = math.sqrt(3.0)


def test_point_cloud_validation():
    with pytest.raises(ValidationError):
        PointCloud([])
    with pytest.raises(ValidationError):
        PointCloud([(1.0,)])  # 1D not supported
    with pytest.raises(ValidationError):
        PointCloud([(0.0, math.nan)])
    with pytest.raises(ValidationError):
        PointCloud(points=((0.0, 0.0), (1.0,)))
    pc = PointCloud([(0, 0, 0), (1, 2, 3)])
    assert pc.dim == 3 and len(pc) == 2 and pc[1].tolist() == [1.0, 2.0, 3.0]


def test_point_cloud_has_one_constructor():
    # The dimension comes from the points; there is no argument to pass it
    # and no way to make a cloud without points.
    with pytest.raises(TypeError):
        PointCloud([(0.0, 0.0)], dim=2)
    with pytest.raises(TypeError):
        PointCloud(points=[(0.0, 0.0)], dim=2)
    with pytest.raises(ValidationError, match="^point cloud is empty$"):
        PointCloud(iter([]))
    assert [f.name for f in dataclasses.fields(PointCloud)] == ["points"]
    pc = PointCloud(iter([(0, 0), (1, 2)]))
    assert pc.dim == 2 and pc.points.shape == (2, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pc.dim = 3


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
    pc = PointCloud(points)
    assert pc.points.dtype == np.float64 and pc.dim == len(want[0])
    assert pc.points.shape == (len(want), len(want[0]))
    assert [[x.hex() for x in p] for p in pc.points.tolist()] == [
        [x.hex() for x in p] for p in want]


def test_points_are_a_read_only_copy():
    given = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    pc = PointCloud(given)
    with pytest.raises(ValueError):
        pc.points[0, 0] = 9.0
    with pytest.raises(ValueError):
        pc[1][1] = 9.0
    given[0, 0] = 9.0
    assert pc.points.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert pc[2].tolist() == [5.0, 6.0]


def test_equal_clouds_hash_equally_and_survive_pickle():
    a = PointCloud([(0.0, 1.0), (2.0, -0.0)])
    b = PointCloud([(-0.0, 1.0), (2.0, 0.0)])
    assert a == b and hash(a) == hash(b)
    assert a != PointCloud([(0.0, 1.0), (2.0, 2.0 ** -1074)])
    assert a != PointCloud([(0.0, 1.0, 0.0), (2.0, 0.0, 0.0)])
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a)
    assert not back.points.flags.writeable
    assert [x.hex() for x in back.points.ravel().tolist()] == [
        x.hex() for x in a.points.ravel().tolist()]
    # Types holding clouds stay comparable and hashable.
    pairs = [PerturbationPairing(source=p, target=q, epsilon=0.5)
             for p, q in ((a, b), (b, a))]
    assert pairs[0] == pairs[1] and hash(pairs[0]) == hash(pairs[1])
    tri = [delaunay(PointCloud([(0, 0), (1, 0), (0, z)]))
           for z in (1, 1.0)]
    assert tri[0] == tri[1] and hash(tri[0]) == hash(tri[1])


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
        PointCloud(points)
    assert str(exc.value) == message


@pytest.mark.parametrize("points, error", [
    ([(1.0, None)], TypeError), ([("a", "2")], ValueError),
    ([1.0, 2.0], TypeError), (np.zeros((2, 2, 2)), TypeError),
])
def test_from_points_raises_as_float_does(points, error):
    # What float() cannot convert raises as float() does (a point file
    # reader maps these to its own error), never as a cloud of NaNs.
    with pytest.raises(error):
        PointCloud(points)


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


def _python_key_sort(filt):
    # The reference: the entries sorted by a Python key, then the one check.
    entries = sorted(filt.entries, key=lambda e: (e[1], len(e[0]), e[0]))
    ordered = Filtration(entries=entries, max_dim=filt.max_dim)
    boundary_matrix(ordered)
    return ordered


def _outcome(sort, filt):
    try:
        out = sort(filt)
    except ValidationError as exc:
        return type(exc), str(exc)
    return out.max_dim, [(v, s.hex()) for v, s in out.entries]


def _sort_corpus():
    grid3 = [(x, y, z) for x in range(6) for y in range(6) for z in range(6)]
    clouds = {
        "sphere": (add_noise(sample_shape(ShapeClass(kind="sphere"), 300, 1),
                             0.1, 2), 0.3),
        "grid-6^3": (PointCloud(grid3), 1.5),
        "grid-9^2": (PointCloud(
            [(x, y) for x in range(9) for y in range(9)]), 1.5),
        "uniform-40": (PointCloud(uniform(3, 40, 5)), None),
    }
    for c, (name, (cloud, threshold)) in enumerate(clouds.items()):
        for m, method in enumerate(("delaunay_rips", "alpha", "rips")):
            spec = FiltrationSpec(method=method, max_hom_dim=1,
                                  threshold=threshold if method == "rips" else None)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # cospherical grids
                entries = list(build(cloud, spec).entries)
            rng = np.random.default_rng(10 * c + m)
            for variant in ("shuffled", "repeat", "repeat-halved", "dropped",
                            "all"):
                mixed = [entries[i] for i in rng.permutation(len(entries))]
                j = int(rng.integers(len(mixed)))
                if variant in ("repeat", "all"):
                    mixed.insert(int(rng.integers(len(mixed))), mixed[j])
                if variant in ("repeat-halved", "all"):
                    verts, scale = mixed[j]
                    mixed.append((verts, scale / 2))
                if variant in ("dropped", "all"):
                    del mixed[int(rng.integers(len(mixed)))]
                yield (f"{name}-{method}-{variant}",
                       Filtration(entries=mixed, max_dim=spec.max_hom_dim + 1))


def test_sort_equals_the_python_key_sort_on_the_corpus():
    # Shuffled Delaunay-Rips, Alpha and Rips filtrations, some with a
    # simplex repeated at its own or half its scale or one simplex dropped:
    # the same result, or the same error and message.
    outcomes = {}
    for name, filt in _sort_corpus():
        want = _outcome(_python_key_sort, filt)
        assert _outcome(sort_filtration, filt) == want, name
        outcomes[name] = want[0]
    assert len(outcomes) == 60
    assert sum(kind is InvalidFiltration for kind in outcomes.values()) >= 30
    assert sum(kind == 2 for kind in outcomes.values()) >= 15


def test_sort_keeps_repeats_in_scale_order():
    # Each dimension's rows are taken in scale order before the row sort;
    # otherwise the repeat of (0,) would be reported before that of (1,).
    filt = Filtration(entries=[((0,), 0.5), ((1,), 0.2), ((0,), 0.1),
                               ((1,), 0.3), ((2,), 0.0)], max_dim=0)
    for sort in (sort_filtration, _python_key_sort):
        with pytest.raises(InvalidFiltration,
                           match=r"^simplex \(1,\) listed twice$"):
            sort(filt)


def test_sort_returns_the_array_view():
    filt = Filtration(entries=(((1,), 0), ((0,), 0), ((0, 1), 2)), max_dim=1)
    out = sort_filtration(filt)
    assert out.entries == (((0,), 0.0), ((1,), 0.0), ((0, 1), 2.0))
    assert all(type(s) is float for _, s in out.entries)
    assert out == _python_key_sort(filt)
    assert hash(out) == hash(_python_key_sort(filt))


@pytest.mark.parametrize("a, b, c", [(-2 ** 63, -5, 2 ** 63 - 1), (-1, 0, 1),
                                     (2 ** 63 - 3, 2 ** 63 - 2, 2 ** 63 - 1)])
def test_sort_keeps_negative_and_extreme_vertex_ids(a, b, c):
    entries = [((c,), 0.0), ((a, c), 1.0), ((b,), 0.0), ((a,), 0.0),
               ((a, b), 1.0), ((b, c), 1.0), ((a, b, c), 2.0)]
    filt = Filtration(entries=entries, max_dim=2)
    out = sort_filtration(filt)
    assert out == _python_key_sort(filt)
    assert [verts for verts, _ in out.entries[:3]] == [(a,), (b,), (c,)]


def test_filtration_converts_the_given_entries():
    verts, scale = (0,), Fraction(1, 2)
    given = ((verts, scale), ((1,), 1))
    filt = Filtration(entries=list(given), max_dim=0)
    assert filt.entries == given
    assert filt._arrays[2].tolist() == [0.5, 1.0]
    back = pickle.loads(pickle.dumps(filt))
    assert back == filt and hash(back) == hash(filt)


def test_filtration_converts_scales_to_floats():
    # The entries are read back from the arrays, not kept as given.
    assert (Filtration([((0,), Fraction(1, 3))], max_dim=0)
            == Filtration([((0,), 1 / 3)], max_dim=0))
    filt = Filtration([((0,), 0), ((1,), Fraction(1, 3)),
                       ((0, 1), np.float32(2.0))], max_dim=1)
    assert filt.entries == (((0,), 0.0), ((1,), 1 / 3), ((0, 1), 2.0))
    assert all(type(scale) is float for _, scale in filt.entries)
    assert all(type(v) is int for verts, _ in filt.entries for v in verts)


@pytest.mark.parametrize("scale", ["1.5", None, b"1", 1j, [1.0], (1.0, 2.0),
                                   True, False])
def test_filtration_rejects_a_scale_that_is_not_real(scale):
    # "1.5" and None raised TypeError from the entry loop; a string is
    # never parsed as a number, and a bool is not a scale.
    with pytest.raises(ValidationError, match="non-real scale .* for \\(1,\\)"):
        Filtration(entries=(((0,), 0.0), ((1,), scale)), max_dim=0)


@pytest.mark.parametrize("scale", [10 ** 400, Fraction(10 ** 400, 3)])
def test_filtration_rejects_a_scale_beyond_the_float_range(scale):
    # These raised OverflowError from the conversion to float64.
    with pytest.raises(ValidationError, match="does not fit in a float"):
        Filtration(entries=(((0,), 0.0), ((1,), scale)), max_dim=0)


@pytest.mark.parametrize("entries, message", [
    # The first offending entry in filtration order is named.
    ((((0,), -1.0), ((0, 1), 1.0)), "negative or NaN scale for (0,)"),
    ((((0, 1), 1.0), ((0,), -1.0)), "simplex (0, 1) exceeds dimension cap 0"),
    ((((0,), 0.0), ((1,), math.nan)), "negative or NaN scale for (1,)"),
])
def test_filtration_names_the_first_offending_entry(entries, message):
    with pytest.raises(ValidationError) as exc:
        Filtration(entries=entries, max_dim=0)
    assert str(exc.value) == message


def test_filtration_rejects_overcap_and_bad_scale():
    with pytest.raises(ValidationError):
        Filtration(entries=(((0, 1), 1.0),), max_dim=0)
    with pytest.raises(ValidationError):
        Filtration(entries=(((0,), -1.0),), max_dim=0)


@pytest.mark.parametrize("max_dim", [1.5, True, False, "2", None, -1, 2.0])
def test_filtration_max_dim_must_be_an_integer(max_dim):
    # 1.5 and True were accepted and "2" raised TypeError from the entry
    # loop; the message is _check_int's.
    with pytest.raises(ValidationError, match="max_dim must be an integer >= 0"):
        Filtration(entries=(((0,), 0.0),), max_dim=max_dim)
    assert Filtration(entries=(((0,), 0.0),), max_dim=np.int64(0)).max_dim == 0


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


def test_diagram_holds_arrays_and_builds_tuple_views():
    pairs = {1: [(0.5, 2.0), (0.25, 0.25)], 0: [(0.0, 1.0), (-0.0, math.inf)]}
    diag = PersistenceDiagram.from_pairs(pairs)
    assert diag.dims.tolist() == [0, 0, 1, 1]
    assert diag.births.dtype == diag.deaths.dtype == np.float64
    assert not (diag.dims.flags.writeable or diag.births.flags.writeable
                or diag.deaths.flags.writeable)
    with pytest.raises(AttributeError):
        diag.births = np.zeros(4)
    assert diag.entries == ((0, 0.0, 1.0), (0, -0.0, math.inf),
                            (1, 0.25, 0.25), (1, 0.5, 2.0))
    assert math.copysign(1.0, diag.entries[1][1]) == -1.0
    assert diag.entries == diag.entries
    assert diag.pairs(1) == ((0.25, 0.25), (0.5, 2.0))
    assert diag.pairs(2) == ()
    for dim, birth, death in diag.entries:
        assert (type(dim), type(birth), type(death)) == (int, float, float)
    assert all(type(v) is float for pair in diag.pairs(0) for v in pair)
    # -0.0 equals 0.0, in == and in hash, as for Python floats.
    other = PersistenceDiagram.from_pairs(
        {0: [(0.0, math.inf), (-0.0, 1.0)], 1: [(0.5, 2.0), (0.25, 0.25)]})
    assert diag == other and hash(diag) == hash(other)
    assert diag != PersistenceDiagram.from_pairs({0: [(0.0, 1.0)]})
    assert diag != diag.entries
    # The entries constructor and pickling give back an equal diagram.
    assert PersistenceDiagram(diag.entries) == diag
    assert PersistenceDiagram(entries=reversed(diag.entries)) == diag
    assert PersistenceDiagram() == PersistenceDiagram.from_pairs({})
    again = pickle.loads(pickle.dumps(diag))
    assert again == diag and again.entries == diag.entries
    assert repr(diag.drop_zero()) == (
        "PersistenceDiagram(entries=((0, 0.0, 1.0), (0, -0.0, inf), "
        "(1, 0.5, 2.0)))")
    assert len(diag) == 4 and len(diag.drop_zero()) == 3
    with pytest.raises(ValidationError, match="invalid pair"):
        PersistenceDiagram([(0, 1.0, 0.5)])


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


GRID = delrips.PIGrid((0.0, 1.0), (0.0, 2.0), (2, 2), 0.5)
PAIR_CONSUMERS = {
    "bottleneck_x": lambda pairs: bottleneck(pairs, [(0.0, 1.0)]),
    "bottleneck_y": lambda pairs: bottleneck([(0.0, 1.0)], pairs),
    "from_pairs": lambda pairs: PersistenceDiagram.from_pairs({0: pairs}),
    "fit_pi_grid": lambda pairs: delrips.fit_pi_grid([[(0.0, 1.0)], pairs]),
    "persistence_image": lambda pairs: delrips.persistence_image(pairs, GRID),
    "persistence_stats": delrips.persistence_stats,
    "stats_feature_vector": lambda pairs: delrips.stats_feature_vector(
        [(0.0, 1.0)], pairs, []),
}
INVALID_PAIRS = {
    "birth_above_death": ([(0.5, 0.2)], "invalid pair: birth 0.5, death 0.2"),
    "nan_birth": ([(math.nan, 1.0)], "invalid pair: birth nan, death 1.0"),
    "nan_death": ([(0.0, math.nan)], "invalid pair: birth 0.0, death nan"),
    "inf_birth": ([(math.inf, math.inf)], "invalid pair: birth inf, death inf"),
    "minus_inf_death": ([(0.0, -math.inf)],
                        "invalid pair: birth 0.0, death -inf"),
    "none": ([(0.0, 1.0), (None, 1.0)], "invalid pair: birth nan, death 1.0"),
    "three_numbers": ([(0.0, 1.0, 2.0)],
                      "a pair is not two numbers: shape (1, 3)"),
    "two_triples": ([(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)],
                    "a pair is not two numbers: shape (2, 3)"),
}


@pytest.mark.parametrize("pairs, message", INVALID_PAIRS.values(),
                         ids=INVALID_PAIRS.keys())
@pytest.mark.parametrize("consume", PAIR_CONSUMERS.values(),
                         ids=PAIR_CONSUMERS.keys())
def test_every_pair_consumer_rejects_invalid_pairs(consume, pairs, message):
    # One check, in core._pair_array, for every function that takes raw
    # pairs; the vectorizers used to return NaN or negative features.
    with pytest.raises(ValidationError, match=re.escape(message)):
        consume(pairs)


def test_pair_array_reads_numbers_in_one_numpy_pass():
    assert core._pair_array([]).shape == (0, 2)
    assert core._pair_array([(1, 2), (Fraction(1, 2), "3.5")]).tolist() == [
        [1.0, 2.0], [0.5, 3.5]]
    arr = core._pair_array(((-0.0, 0.0), (2 ** 60 + 1, math.inf)))
    assert arr.dtype == np.float64 and arr.shape == (2, 2)
    assert math.copysign(1.0, arr[0, 0]) == -1.0
    assert arr[1].tolist() == [float(2 ** 60 + 1), math.inf]
    assert core._pair_array(np.array([[1, 2]])).tolist() == [[1.0, 2.0]]
    # A string is not unpacked as a pair of digits.
    for bad in ([()], [1.0, 2.0], np.zeros(2), [(0, 10 ** 400)],
                [(0.0, 1.0), (0.0, 1.0, 2.0)], [(0.0, 1.0), "ab"], ["12"],
                ["12", "34"], [[(0.0, 1.0)]]):
        with pytest.raises(ValidationError, match="a pair is not two numbers"):
            core._pair_array(bad)


def test_pairwise_distances_matches_math_dist():
    pc = PointCloud([(0, 0), (3, 4), (1, 1)])
    mat = pairwise_distances(pc)
    assert mat[0][1] == 5.0
    assert mat[1][0] == 5.0
    assert mat[2][2] == 0.0
    assert mat[0][2] == pytest.approx(math.sqrt(2.0), abs=0)


def _sum_squares(diffs):
    s = diffs[0] * diffs[0] + diffs[1] * diffs[1]
    return s + diffs[2] * diffs[2] if len(diffs) == 3 else s


def _point_distance(p, q):
    # The per-pair formula of the numpy kernel, in Python floats: the
    # reference. A sum of squares that is not a normal float is summed again
    # on the differences scaled by 2**-e, e the exponent of the largest.
    diffs = [a - b for a, b in zip(p, q)]
    e = 0
    if not sys.float_info.min <= _sum_squares(diffs) < math.inf:
        e = math.frexp(max(map(abs, diffs)))[1]
        diffs = [math.ldexp(x, -e) for x in diffs]
    return math.ldexp(math.sqrt(_sum_squares(diffs)), e)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 123.456, 2.0 ** 532, 2.0 ** -664])
def test_pairwise_distances_equal_scalar_formula(dim, scale):
    pts = np.random.default_rng(dim).standard_normal((70, dim)) * scale
    pts[5] = pts[4]  # a repeated point: distance exactly 0.0
    pc = PointCloud(pts)
    mat = pairwise_distances(pc)
    rows = pc.points.tolist()
    want = [[_point_distance(p, q) for q in rows] for p in rows]
    assert mat == want
    assert mat[4][5] == 0.0 and all(math.isfinite(x) for row in mat for x in row)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [-664, 532])
def test_distances_scale_by_a_power_of_two_bit_for_bit(dim, p):
    # Near 2**-664 every sum of squares underflows and near 2**532 it
    # overflows, so each row is summed scaled into range; the values are
    # the unit-scale ones times 2**p, bit for bit.
    pts = np.random.default_rng(30 + dim).uniform(-1.0, 1.0, (80, dim))
    pts[7] = pts[3]  # a repeated point: distance exactly 0.0
    want = core.distances(pts[:, None, :], pts)
    big = np.ldexp(pts, p)
    got = core.distances(big[:, None, :], big)
    assert got.tobytes() == np.ldexp(want, p).tobytes()
    assert got[3, 7] == 0.0 and (got > 0.0).sum() == 80 * 79 - 2
    for i, j in [(0, 1), (3, 7), (5, 60)]:
        assert core.distances(big[i], big[j]) == math.ldexp(want[i, j], p)


def _names(tree) -> set:
    """Every name, attribute and imported name in a module, and each
    ``module.attribute`` and ``from module import name`` as a dotted name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name):
                names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def test_one_distance_formula_and_scaling_only_in_the_kernels():
    # core.distances is the one point distance, so no second formula
    # (hypot, math.dist) may appear; and the kernels scale their own
    # inputs, so the builders and the geometry module scale nothing.
    package = Path(delrips.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        names = _names(ast.parse(path.read_text()))
        banned = {"hypot", "math.dist"}
        if path.name in ("filtration.py", "geometry.py"):
            banned |= {"scale_exponent", "_scaled", "ldexp"}
        found += [(path.name, name) for name in sorted(banned & names)]
    assert found == []


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


_PAIR = PointCloud([(0.0, 0.0), (1.0, 0.0)])


def _grid(birth=(0.0, 1.0), persistence=(0.0, 1.0), resolution=(2, 2),
          sigma=0.1):
    return PIGrid(birth, persistence, resolution, sigma)


def _cli(*argv):
    """A call that runs the CLI with the value, as text, in place of {}."""
    return lambda v: main([a.format(v) for a in argv])


# (id, start of the message, call with the value, values just past the bound
# and other bad values)
_NUMERIC_ARGUMENTS = [
    ("Filtration", "max_dim", lambda v: Filtration((((0,), 0.0),), v), [-1]),
    ("PersistenceDiagram", "dim",
     lambda v: PersistenceDiagram([(v, 0.0, 1.0)]),
     [-1, 1.5, "1", 2 ** 63, 2 ** 70]),
    ("from_pairs", "dim",
     lambda v: PersistenceDiagram.from_pairs({v: [(0.0, 1.0)]}),
     [-1, 2.7, 2 ** 63, 2 ** 70]),
    ("fmt_float", "precision", lambda v: fmt_float(1.5, v), [-1]),
    ("FiltrationSpec", "threshold", lambda v: FiltrationSpec("rips", 1, v),
     [-5e-324]),
    ("PIGrid-birth-start", "birth_range", lambda v: _grid(birth=(v, 1.0)),
     [1.0]),
    ("PIGrid-birth-end", "birth_range",
     lambda v: _grid(birth=(-1.7e308, v)), [-1.7e308, 1.7e308]),
    ("PIGrid-persistence-start", "persistence_range",
     lambda v: _grid(persistence=(v, 1.0)), [1.0]),
    ("PIGrid-persistence-end", "persistence_range",
     lambda v: _grid(persistence=(-1.0, v)), [0.0]),
    ("PIGrid-rows", "resolution[0]", lambda v: _grid(resolution=(v, 2)), [0]),
    ("PIGrid-cols", "resolution[1]", lambda v: _grid(resolution=(2, v)), [0]),
    ("PIGrid-sigma", "sigma", lambda v: _grid(sigma=v), [0.0]),
    ("ShapeClass-radius", "radius",
     lambda v: ShapeClass("sphere", {"radius": v}), [0.0]),
    ("ShapeClass-spread", "spread",
     lambda v: ShapeClass("three_clusters", {"spread": v}), [-5e-324]),
    ("add_noise", "nu", lambda v: add_noise(_PAIR, v, 0), [-5e-324]),
    ("near_cocircular_quad", "x", near_cocircular_quad, [2.0 - SQ3]),
    ("PerturbationPairing", "epsilon",
     lambda v: PerturbationPairing(_PAIR, _PAIR, v), [0.0]),
    ("epsilon_perturb", "eps", lambda v: epsilon_perturb(_PAIR, v, 0), [0.0]),
    ("run_cell", "timeout",
     lambda v: run_cell("delaunay_rips", _PAIR.points, 1, 0, v), [0.0]),
    ("run_grid-timeout", "timeout",
     lambda v: run_grid(ShapeClass("sphere"), 0.1, [20], ["rips"], 1, 1, v, 0),
     [0.0]),
    ("run_grid-trials", "trials",
     lambda v: run_grid(ShapeClass("sphere"), 0.1, [20], ["rips"], 1, v, 7.0, 0),
     [0, 1.5]),
    ("persistent_entropy", "log_base", lambda v: persistent_entropy([1, 2], v),
     [0.0, 1.0, -2.0]),
    ("persistence_stats", "log_base", lambda v: persistence_stats([], v),
     [0, 1.0]),
    ("stats_feature_vector", "log_base",
     lambda v: stats_feature_vector([(0, 1)], [], [], log_base=v), [0, 1.0]),
    ("cli-precision", "--precision",
     _cli("hausdorff", "--precision={}", "a.csv", "b.csv"), [-1]),
    ("cli-noise", "--noise",
     _cli("generate", "--shape", "sphere", "--noise={}", "-o", "c.csv"),
     [-5e-324]),
    ("cli-nu", "--nu", _cli("bench", "--nu={}", "-o", "b.csv"), [-5e-324]),
    ("cli-trials", "--trials", _cli("bench", "--trials={}", "-o", "b.csv"),
     [0, 1.5]),
    ("cli-timeout", "--timeout", _cli("bench", "--timeout={}", "-o", "b.csv"),
     [0.0]),
    ("cli-bench-maxdim", "--maxdim",
     _cli("bench", "--maxdim={}", "-o", "b.csv"), [-1]),
    ("cli-pd-maxdim", "--maxdim", _cli("pd", "--maxdim={}", "c.csv"), [-1]),
    ("cli-pi-maxdim", "--maxdim",
     _cli("vectorize", "pi", "d.csv", "--maxdim={}", "-o", "f.csv"), [-1]),
    ("cli-dim", "--dim", _cli("bottleneck", "a.csv", "b.csv", "--dim={}"), [-1]),
]
_BAD_NUMBERS = {"str": "a", "None": None, "bool": True, "nan": math.nan,
                "inf": math.inf, "-inf": -math.inf, "1e400": 10 ** 400}


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{case}-{key}")
    for case, name, call, past in _NUMERIC_ARGUMENTS
    for key, value in [*_BAD_NUMBERS.items(),
                       *((f"past{i}", v) for i, v in enumerate(past))]
    if name != "threshold" or key not in ("None", "inf")])  # no cap
def test_every_numeric_argument_follows_one_rule(name, call, value, capsys):
    # core._check_int and core._check_real check every numeric argument:
    # a bad value is a ValidationError naming the argument (a usage error
    # for a CLI option), never a TypeError, a ZeroDivisionError, a NaN
    # image or an accepted negative dimension.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name.startswith("--"):
            with pytest.raises(SystemExit) as exc:
                call(value)
            assert exc.value.code == 2
            assert f"error: argument {name}: value must" in capsys.readouterr().err
        else:
            with pytest.raises(ValidationError, match=(
                    f"^{re.escape(name)}\\S*( width)? must be .*, got ")):
                call(value)


def test_only_core_imports_numbers():
    # One number rule: every other module checks numbers through core.
    importers = []
    for path in sorted(Path(delrips.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if "numbers" in names:
                importers.append(path.name)
    assert importers == ["core.py"]


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


def _defined(stmt) -> list:
    """The module-level functions, classes and constants a statement
    defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)]


def _loads(stmt) -> set:
    """The names a statement reads as plain names."""
    return {node.id for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_module_level_name_is_read():
    # A helper, class or constant whose last reader was deleted (say a
    # second copy of a helper once its callers moved to the first) would
    # go unnoticed by the import check above. A name defined in module m is
    # read when m reads it outside its definition, some file imports it
    # from m, or some attribute has its name.
    package = Path(delrips.__file__).parent
    here = Path(__file__).parent
    paths = [*package.glob("*.py"), *here.glob("*.py"),
             *(here.parent / "perfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    imported, attributes = set(), set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[-1]
            imported.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    unread = []
    for path in sorted(package.glob("*.py")):
        body = trees[path].body
        loads = [_loads(stmt) for stmt in body]
        for i, stmt in enumerate(body):
            unread += [
                (path.name, name) for name in _defined(stmt)
                if not name.startswith("__")
                and (path.stem, name) not in imported
                and name not in attributes
                and not any(name in names for names in loads[:i] + loads[i + 1:])]
    assert unread == []
