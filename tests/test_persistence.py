import math
import re

import numpy as np
import pytest

from conftest import random_cloud
from delrips import (Filtration, FiltrationSpec, PointCloud, boundary_matrix,
                     build, build_delaunay_rips, build_rips, compute_diagram,
                     extract_pairs, near_cocircular_quad, reduce_standard,
                     reduce_twist, sort_filtration)
from delrips.errors import (InvalidFiltration, UnsortedFiltration,
                            ValidationError)
from delrips.persistence import BoundaryMatrix, ReducedMatrix, _apparent_pairs
from families import jittered_grid_member, near_planar_member
from naive_oracle import apparent_pairs as naive_apparent_pairs
from naive_oracle import boundary_columns as naive_boundary_columns
from naive_oracle import dense, naive_vr_diagram

SQ3 = math.sqrt(3.0)


def quad_filtration(x=0.1):
    return build_delaunay_rips(near_cocircular_quad(x),
                               FiltrationSpec(method="delaunay_rips",
                                              max_hom_dim=1))


# Z2 boundary matrix of the four-point filtration, columns ordered
# a, b, c, d, bd, cd, ab, ac, ad, abd, acd (row indices match).
QUAD_B_COLUMNS = ((), (), (), (),
                  (1, 3), (2, 3), (0, 1), (0, 2), (0, 3),
                  (4, 6, 8), (5, 7, 8))
# Its reduction by left-to-right column additions.
QUAD_R_COLUMNS = ((), (), (), (),
                  (1, 3), (1, 2), (0, 1), (), (),
                  (4, 6, 8), (4, 5, 6, 7))


def test_boundary_matrix_single_vertex():
    filt = Filtration(entries=(((0,), 0.0),), max_dim=1)
    mat = boundary_matrix(filt)
    assert dense(mat.columns) == [[0]]


def test_boundary_matrix_single_edge():
    filt = Filtration(entries=(((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)),
                      max_dim=1)
    mat = boundary_matrix(filt)
    assert mat.columns == ((), (), (0, 1))
    assert mat.dim_array.tolist() == [0, 0, 1]


def test_boundary_matrix_requires_sorted():
    filt = Filtration(entries=(((0, 1), 1.0), ((0,), 0.0), ((1,), 0.0)),
                      max_dim=1)
    with pytest.raises(UnsortedFiltration):
        boundary_matrix(filt)


# Canonically ordered but not closed, not unique or not monotone: the one
# filtration check rejects each the same way, whether boundary_matrix meets
# it as given or sort_filtration after sorting.
INVALID_FILTRATIONS = {
    "missing-face": ((((0,), 0.0), ((0, 1), 1.0)), "is missing"),
    "duplicate": ((((0,), 0.0), ((0,), 0.0)), "listed twice"),
    "face-after-coface": ((((0,), 0.0), ((0, 1), 1.0), ((1,), 2.0)),
                          "appears after"),
}


@pytest.mark.parametrize("name", sorted(INVALID_FILTRATIONS))
@pytest.mark.parametrize("entry", [boundary_matrix, sort_filtration,
                                   compute_diagram])
def test_one_check_rejects_invalid_filtration(entry, name):
    entries, message = INVALID_FILTRATIONS[name]
    with pytest.raises(InvalidFiltration, match=message):
        entry(Filtration(entries=entries, max_dim=1))


@pytest.mark.parametrize("entries", [
    (((0,), 1.0), ((1,), 0.0)),  # scale descends
    (((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0), ((2,), 1.0)),  # dimension
    (((1,), 0.0), ((0,), 0.0)),  # vertex tuple
    (((0, 1), 1.0), ((0,), 0.0)),  # order is checked before faces
])
def test_boundary_matrix_rejects_each_unsorted_key(entries):
    with pytest.raises(UnsortedFiltration):
        boundary_matrix(Filtration(entries=entries, max_dim=1))


def test_quad_boundary_matrix_golden():
    mat = boundary_matrix(quad_filtration())
    assert mat.columns == QUAD_B_COLUMNS


def test_quad_reduction_golden():
    red = reduce_standard(boundary_matrix(quad_filtration()))
    assert red.columns == QUAD_R_COLUMNS


def test_reduce_standard_zero_matrix_unchanged():
    filt = Filtration(entries=(((0,), 0.0), ((1,), 0.0)), max_dim=0)
    red = reduce_standard(boundary_matrix(filt))
    assert red.columns == ((), ())
    assert red.low_array.tolist() == [-1, -1]


def test_quad_pairs():
    x = 0.1
    filt = quad_filtration(x)
    diag = extract_pairs(reduce_standard(boundary_matrix(filt)), filt)
    near = math.sqrt(1 - x + x * x)
    assert diag.pairs(0) == (
        pytest.approx((0.0, near)), pytest.approx((0.0, near)),
        pytest.approx((0.0, SQ3)), (0.0, math.inf))
    assert diag.pairs(1) == (pytest.approx((SQ3, 2 - x)),
                             pytest.approx((2 - x, 2 - x)))


def test_single_vertex_diagram():
    filt = Filtration(entries=(((0,), 0.0),), max_dim=1)
    diag = compute_diagram(filt)
    assert diag.pairs(0) == ((0.0, math.inf),)


def test_twist_equals_standard_on_quad():
    filt = quad_filtration()
    mat = boundary_matrix(filt)
    assert (extract_pairs(reduce_twist(mat), filt)
            == extract_pairs(reduce_standard(mat), filt))


def _shortcut_clouds(rng):
    """(method, cloud) pairs for comparing reduce_twist with the reference:
    random clouds in R^2 and R^3 (Rips small, the Delaunay builders up to
    150 points), and fixed jittered-grid and near-planar family members."""
    for dim in (2, 3):
        for n in (int(rng.integers(4, 12)), 13):
            yield "rips", random_cloud(rng, n, dim=dim)
        for n in (int(rng.integers(4, 25)), 60, 150):
            cloud = random_cloud(rng, n, dim=dim)
            yield "delaunay_rips", cloud
            yield "alpha", cloud
        for seed in (3, 41):
            cloud = PointCloud.from_points(jittered_grid_member(dim, seed))
            yield "delaunay_rips", cloud
            yield "alpha", cloud
    for seed in (5, 30):
        cloud = PointCloud.from_points(near_planar_member(seed))
        yield "delaunay_rips", cloud
        yield "alpha", cloud


def test_twist_equals_standard_on_random_clouds(rng):
    # The apparent pairs and the clearing are shortcuts: every pivot and
    # every reduced column must equal the plain left-to-right reduction's.
    apparent = residual = 0
    for method, cloud in _shortcut_clouds(rng):
        maxdim = 2 if method == "rips" else cloud.dim - 1
        filt = build(cloud, FiltrationSpec(method=method, max_hom_dim=maxdim))
        mat = boundary_matrix(filt)
        twist, std = reduce_twist(mat), reduce_standard(mat)
        assert np.array_equal(twist.low_array, std.low_array)
        assert twist.columns == std.columns
        assert extract_pairs(twist, filt) == extract_pairs(std, filt)
        apparent += len(_apparent_pairs(mat)[0])
        residual += len(twist.changed)
    assert apparent > 0 and residual > 0


def test_apparent_pairs_match_oracle_and_are_persistence_pairs(rng):
    seen = 0
    for method, cloud in _shortcut_clouds(rng):
        maxdim = 2 if method == "rips" else cloud.dim - 1
        mat = boundary_matrix(build(cloud, FiltrationSpec(method=method,
                                                          max_hom_dim=maxdim)))
        faces, cofaces = _apparent_pairs(mat)
        pairs = list(zip(faces.tolist(), cofaces.tolist()))
        assert pairs == naive_apparent_pairs(mat.columns)
        low = reduce_standard(mat).low_array
        assert all(low[j] == i for i, j in pairs)
        seen += len(pairs)
    assert seen > 0


def test_vr_matches_naive_powerset_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        pc = random_cloud(rng, n)
        filt = build_rips(pc, FiltrationSpec(method="rips", max_hom_dim=1))
        diag = compute_diagram(filt)
        oracle = naive_vr_diagram(pc.points, 1)
        assert {p: diag.pairs(p) for p, _, _ in diag.entries} == oracle


def test_boundary_of_boundary_is_zero(rng):
    from naive_oracle import merge_sym_diff

    for _ in range(4):
        pc = random_cloud(rng, int(rng.integers(3, 15)))
        filt = build_rips(pc, FiltrationSpec(method="rips", max_hom_dim=2))
        mat = boundary_matrix(filt)
        for col in mat.columns:
            acc = []
            for face_idx in col:
                acc = merge_sym_diff(acc, mat.columns[face_idx])
            assert acc == []


def test_h0_pair_count_equals_n(rng):
    for _ in range(5):
        n = int(rng.integers(3, 20))
        filt = build_delaunay_rips(random_cloud(rng, n),
                                   FiltrationSpec(max_hom_dim=1))
        diag = compute_diagram(filt)
        h0 = diag.pairs(0)
        assert len(h0) == n
        assert sum(1 for _, d in h0 if math.isinf(d)) == 1


def test_dimension_cap_suppresses_top_births(rng):
    # Simplices at the cap contribute kill columns but no classes of their
    # own dimension: an equilateral triangle at max_hom_dim=0 reports only H0.
    pc = PointCloud.from_points([(0, 0), (1, 0), (0.5, 1)])
    filt = build_rips(pc, FiltrationSpec(method="rips", max_hom_dim=0))
    diag = compute_diagram(filt)
    assert {dim for dim, _, _ in diag.entries} == {0}


def test_boundary_matrix_shares_int_and_float_objects(rng):
    cloud = random_cloud(rng, 300, dim=3)
    filt = build_delaunay_rips(cloud, FiltrationSpec(max_hom_dim=2))
    mat = boundary_matrix(filt)
    red = reduce_twist(mat)
    assert red.changed
    for columns in (mat.columns, red.columns):
        rows = [i for col in columns for i in col]
        assert len({id(i) for i in rows}) == len(set(rows))
    scales = [scale for _, scale in filt.entries]
    assert len({id(s) for s in scales}) == len(set(scales))


@pytest.mark.parametrize("method", ["delaunay_rips", "alpha"])
def test_diagram_builds_no_column_tuples(method, rng, monkeypatch):
    def fail(self):
        pytest.fail("column tuples were built")

    cloud = random_cloud(rng, 60, dim=3)
    filt = build(cloud, FiltrationSpec(method=method, max_hom_dim=2))
    for cls in (BoundaryMatrix, ReducedMatrix):
        monkeypatch.setattr(cls, "columns", property(fail))
    diag = compute_diagram(filt)
    monkeypatch.undo()
    mat = boundary_matrix(filt)
    assert diag == extract_pairs(reduce_standard(mat), filt)


@pytest.mark.parametrize("method", ["delaunay_rips", "alpha", "rips"])
def test_diagram_of_delaunay_filtration_builds_no_entries(method, rng,
                                                          monkeypatch):
    def fail(self):
        pytest.fail("entries were built")

    # Rips on 20 points has 6195 simplices up to dimension 3.
    cloud = random_cloud(rng, 20 if method == "rips" else 60, dim=3)
    filt = build(cloud, FiltrationSpec(method=method, max_hom_dim=2))
    monkeypatch.setattr(Filtration, "entries", property(fail))
    assert len(filt) > 60
    diag = compute_diagram(filt)
    monkeypatch.undo()
    assert diag == compute_diagram(Filtration(entries=filt.entries,
                                              max_dim=filt.max_dim))


@pytest.mark.parametrize("vertex", [2 ** 63, -2 ** 63 - 1, 1.5, "a", math.nan,
                                    (0, 1)])
@pytest.mark.parametrize("entry", [boundary_matrix, sort_filtration])
def test_vertex_ids_must_fit_int64(entry, vertex):
    # The filtration rejects the id when it is built, so no entry point
    # meets it; the extreme ids that fit pass through both.
    with pytest.raises(ValidationError, match="fit in int64"):
        Filtration(entries=(((vertex,), 0.0),), max_dim=0)
    # Ids that are sequences of different lengths raised numpy's ValueError.
    with pytest.raises(ValidationError, match="fit in int64"):
        Filtration(entries=(((0,), 0.0), (((0, 1),), 0.0)), max_dim=0)
    entry(Filtration(entries=(((-2 ** 63,), 0.0), ((2 ** 63 - 1,), 0.0)),
                     max_dim=0))


def test_extreme_int64_vertex_ids_match_reference():
    lo, hi = -2 ** 63, 2 ** 63 - 1
    entries = sorted([((lo,), 0.0), ((-5,), 0.0), ((hi,), 0.0), ((7,), 0.0),
                      ((lo, -5), 1.0), ((lo, hi), 1.0), ((-5, hi), 1.0),
                      ((lo, -5, hi), 2.0), ((hi, 7), 3.0)],
                     key=lambda e: (e[1], len(e[0]), e[0]))
    mat = boundary_matrix(Filtration(entries=entries, max_dim=2))
    assert mat.columns == tuple(naive_boundary_columns(entries))
    with pytest.raises(InvalidFiltration, match=f"face \\({lo},\\) of"):
        boundary_matrix(Filtration(entries=entries[1:], max_dim=2))


@pytest.mark.parametrize("lo,span", [(0, 2 ** 21), (2 ** 40, 2 ** 40),
                                     (-2 ** 62, 2 ** 63)])
def test_wide_vertex_ids_on_shuffled_rows_match_reference(lo, span, rng):
    # Ids spanning 2**21 or more pack at most two columns per uint64 sort
    # key, so matching triangles to edges and tetrahedra to triangles
    # compares several keys; filtration order shuffles each dimension's
    # rows against their lexicographic order.
    filt = build_delaunay_rips(random_cloud(rng, 30, dim=3),
                               FiltrationSpec(max_hom_dim=2))
    ids = np.unique(np.concatenate([[lo, lo + span],
                                    lo + rng.integers(1, span, 40)]))[:30]
    ids[-1] = lo + span
    entries = tuple((tuple(ids[list(verts)].tolist()), scale)
                    for verts, scale in filt.entries)
    mat = boundary_matrix(Filtration(entries=entries, max_dim=3))
    assert mat.columns == tuple(naive_boundary_columns(entries))
    last = max(j for j, (verts, _) in enumerate(entries) if len(verts) == 3)
    for broken in (entries[:last] + entries[last + 1:],  # a face missing
                   entries[:last + 1] + entries[last:]):  # a face twice
        with pytest.raises(ValidationError) as want:
            naive_boundary_columns(broken)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            boundary_matrix(Filtration(entries=broken, max_dim=3))


@pytest.mark.parametrize("entries", [
    (((0,), 0.0), ((1, 2), 1.0)),  # two faces missing: the reference's first
    (((0,), 0.0), ((1,), 0.0), ((0,), 0.0)),  # repeated and out of order
    (((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0), ((0, 1, 2), 1.0),
     ((0, 2), 2.0), ((1, 2), 2.0)),  # two faces after their coface
])
def test_error_names_the_reference_entry_and_face(entries):
    with pytest.raises(ValidationError) as want:
        naive_boundary_columns(entries)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        boundary_matrix(Filtration(entries=entries, max_dim=2))


def test_empty_simplex_is_rejected():
    # Rejected when the filtration is built, before boundary_matrix.
    with pytest.raises(ValidationError, match="at least one vertex"):
        Filtration(entries=(((0,), 0.0), ((), 0.0)), max_dim=0)


def test_infinite_birth_is_rejected_as_an_invalid_pair():
    filt = Filtration(entries=(((0,), math.inf),), max_dim=1)
    with pytest.raises(ValidationError,
                       match=re.escape("invalid pair: birth inf, death inf")):
        compute_diagram(filt)


def test_signed_zero_births_keep_column_order():
    diag = compute_diagram(Filtration(entries=(((0,), -0.0), ((1,), 0.0)),
                                      max_dim=1))
    assert diag.entries == ((0, -0.0, math.inf), (0, 0.0, math.inf))
    assert [math.copysign(1.0, b) for _, b, _ in diag.entries] == [-1.0, 1.0]


def test_edge_at_infinite_scale_kills_with_infinite_death():
    filt = Filtration(entries=(((0,), 0.0), ((1,), 1.0), ((0, 1), math.inf)),
                      max_dim=1)
    assert compute_diagram(filt).entries == ((0, 0.0, math.inf),
                                             (0, 1.0, math.inf))


def test_dimension_cap_drops_births_at_the_top_dimension():
    # A hollow triangle capped at dimension 1: its cycle would be an H1
    # class born by the last edge, which the cap suppresses.
    entries = (((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0),
               ((0, 2), 1.0), ((1, 2), 2.0))
    for max_dim, want in (
            (1, ((0, 0.0, 1.0), (0, 0.0, 1.0), (0, 0.0, math.inf))),
            (2, ((0, 0.0, 1.0), (0, 0.0, 1.0), (0, 0.0, math.inf),
                 (1, 2.0, math.inf)))):
        assert compute_diagram(Filtration(entries, max_dim)).entries == want
