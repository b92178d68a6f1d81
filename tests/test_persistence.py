import math
import re

import pytest

from conftest import random_cloud
from delrips import (Filtration, FiltrationSpec, PointCloud, boundary_matrix,
                     build, build_delaunay_rips, build_rips, compute_diagram,
                     extract_pairs, near_cocircular_quad, persistent_betti,
                     reduce_standard, reduce_twist, sort_filtration)
from delrips.core import PersistenceDiagram
from delrips.errors import (InvalidFiltration, UnsortedFiltration,
                            ValidationError)
from naive_oracle import boundary_columns as naive_boundary_columns
from naive_oracle import naive_vr_diagram

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
    assert mat.dense() == [[0]]


def test_boundary_matrix_single_edge():
    filt = Filtration(entries=(((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)),
                      max_dim=1)
    mat = boundary_matrix(filt)
    assert mat.columns == ((), (), (0, 1))
    assert mat.dims == (0, 0, 1)


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
    assert red.low == (None, None)


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


def test_twist_equals_standard_on_random_clouds(rng):
    for _ in range(10):
        n = int(rng.integers(3, 25))
        pc = random_cloud(rng, n)
        for filt in (build_delaunay_rips(pc, FiltrationSpec(max_hom_dim=1)),
                     build_rips(pc, FiltrationSpec(method="rips",
                                                   max_hom_dim=1))):
            mat = boundary_matrix(filt)
            assert (extract_pairs(reduce_twist(mat), filt)
                    == extract_pairs(reduce_standard(mat), filt))


def test_vr_matches_naive_powerset_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        pc = random_cloud(rng, n)
        filt = build_rips(pc, FiltrationSpec(method="rips", max_hom_dim=1))
        diag = compute_diagram(filt)
        oracle = naive_vr_diagram(pc.points, 1)
        assert diag.pairs_by_dim == oracle


def test_boundary_of_boundary_is_zero(rng):
    from delrips.persistence import _sym_diff

    for _ in range(4):
        pc = random_cloud(rng, int(rng.integers(3, 15)))
        filt = build_rips(pc, FiltrationSpec(method="rips", max_hom_dim=2))
        mat = boundary_matrix(filt)
        for col in mat.columns:
            acc = []
            for face_idx in col:
                acc = _sym_diff(acc, mat.columns[face_idx])
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


def test_multiplicity_betti_identity(rng):
    # mu_p(i,j) recovered from persistent Betti numbers by
    # inclusion-exclusion over consecutive critical scales.
    for _ in range(5):
        pc = random_cloud(rng, int(rng.integers(4, 12)))
        filt = build_delaunay_rips(pc, FiltrationSpec(max_hom_dim=1))
        diag = compute_diagram(filt)
        scales = sorted({s for _, s in filt.entries})
        grid = [scales[0] - 1.0] + scales
        for p in (0, 1):
            finite = [(b, d) for b, d in diag.pairs(p) if math.isfinite(d)]
            for ii in range(1, len(grid)):
                for jj in range(ii + 1, len(grid)):
                    si, sj = grid[ii], grid[jj]
                    mu = ((persistent_betti(diag, p, si, grid[jj - 1])
                           - persistent_betti(diag, p, si, sj))
                          - (persistent_betti(diag, p, grid[ii - 1], grid[jj - 1])
                             - persistent_betti(diag, p, grid[ii - 1], sj)))
                    direct = sum(1 for b, d in finite if b == si and d == sj)
                    assert mu == direct


def test_persistent_betti_examples():
    x = 0.1
    diag = compute_diagram(quad_filtration(x))
    assert persistent_betti(diag, 0, 0.0, 0.0) == 4
    assert persistent_betti(diag, 0, 2.0, 2.0) == 1
    assert persistent_betti(PersistenceDiagram(), 0, 0.0, 1.0) == 0
    with pytest.raises(ValueError):
        persistent_betti(diag, 0, 1.0, 0.0)


def test_dimension_cap_suppresses_top_births(rng):
    # Simplices at the cap contribute kill columns but no classes of their
    # own dimension: an equilateral triangle at max_hom_dim=0 reports only H0.
    pc = PointCloud.from_points([(0, 0), (1, 0), (0.5, 1)])
    filt = build_rips(pc, FiltrationSpec(method="rips", max_hom_dim=0))
    diag = compute_diagram(filt)
    assert diag.dims() == (0,)


def test_boundary_matrix_shares_int_and_float_objects(rng):
    cloud = random_cloud(rng, 300, dim=3)
    mat = boundary_matrix(build_delaunay_rips(cloud, FiltrationSpec(max_hom_dim=2)))
    rows = [i for col in mat.columns for i in col]
    assert len({id(i) for i in rows}) == len(set(rows))
    assert len({id(s) for s in mat.scales}) == len(set(mat.scales))


@pytest.mark.parametrize("method", ["delaunay_rips", "alpha"])
def test_diagram_of_delaunay_filtration_builds_no_entries(method, rng,
                                                          monkeypatch):
    def fail(self):
        pytest.fail("entries were built")

    cloud = random_cloud(rng, 60, dim=3)
    filt = build(cloud, FiltrationSpec(method=method, max_hom_dim=2))
    monkeypatch.setattr(Filtration, "entries", property(fail))
    assert len(filt) > 60
    diag = compute_diagram(filt)
    monkeypatch.undo()
    assert diag == compute_diagram(Filtration(entries=filt.entries,
                                              max_dim=filt.max_dim))


@pytest.mark.parametrize("vertex", [2 ** 63, -2 ** 63 - 1, 1.5, "a"])
@pytest.mark.parametrize("entry", [boundary_matrix, sort_filtration])
def test_vertex_ids_must_fit_int64(entry, vertex):
    filt = Filtration(entries=(((vertex,), 0.0),), max_dim=0)
    with pytest.raises(ValidationError, match="fit in int64"):
        entry(filt)


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
    filt = Filtration(entries=(((0,), 0.0), ((), 0.0)), max_dim=0)
    with pytest.raises(ValidationError, match="at least one vertex"):
        boundary_matrix(filt)
