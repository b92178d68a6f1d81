"""Hypothesis property suites for the algebraic pieces."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from delrips import (Filtration, FiltrationSpec, PointCloud, bottleneck,
                     boundary_matrix, build, build_rips, delay_embed,
                     persistent_entropy, sort_filtration)
from delrips.errors import ValidationError
from delrips.fileio import fmt_float
from delrips.persistence import _add_into
from naive_oracle import boundary_columns as naive_boundary_columns
from naive_oracle import brute_bottleneck, merge_sym_diff


def _sym_diff(a, b):
    """Z2 sum of two increasing index sequences by the reduction's
    ``_add_into``, as a new list."""
    return _add_into(list(a), b)


index_lists = st.lists(st.integers(0, 40), max_size=12).map(
    lambda xs: sorted(set(xs)))


@given(index_lists, index_lists)
def test_sym_diff_commutes(a, b):
    assert _sym_diff(a, b) == _sym_diff(b, a)


@given(index_lists)
def test_sym_diff_self_inverse(a):
    assert _sym_diff(a, a) == []
    assert _sym_diff(a, []) == a


@given(index_lists, index_lists, index_lists)
def test_sym_diff_associative(a, b, c):
    assert (_sym_diff(_sym_diff(a, b), c)
            == _sym_diff(a, _sym_diff(b, c)))


@given(st.lists(st.integers(0, 3000), max_size=300).map(lambda xs: sorted(set(xs))),
       st.lists(st.integers(0, 3000), max_size=12).map(lambda xs: sorted(set(xs))))
def test_sym_diff_equals_merge(long, short):
    # Reduction mostly adds a short column to a long one, in either order.
    want = merge_sym_diff(long, short)
    assert _sym_diff(long, short) == want
    assert _sym_diff(tuple(short), tuple(long)) == want


@given(st.floats(0, 1e3))
def test_fmt_float_round_trip(x):
    assert abs(float(fmt_float(x, 10)) - x) <= 5e-10


def test_fmt_float_specials():
    assert fmt_float(math.inf) == "inf"
    assert fmt_float(0.0) == "0"
    assert fmt_float(1.9) == "1.9"
    assert fmt_float(-0.0) == "0"
    # Below the fixed precision a nonzero value keeps significant digits.
    assert fmt_float(1.25e-200) == "1.25e-200"
    assert fmt_float(-3e-11) == "-3e-11"


def test_fmt_float_keeps_integer_zeros():
    assert fmt_float(10.0, 0) == "10"
    assert fmt_float(100.0, 0) == "100"
    assert fmt_float(99.7, 0) == "100"
    assert fmt_float(-20.0, 0) == "-20"


@given(st.integers(2, 3), st.integers(1, 7), st.integers(1, 5),
       st.integers(0, 50))
def test_delay_embed_count(m, tau, stride, extra):
    length = (m - 1) * tau + 1 + extra
    cloud = delay_embed(list(range(length)), m, tau, stride)
    assert len(cloud) == (length - (m - 1) * tau - 1) // stride + 1


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=10))
def test_entropy_bounds(values):
    h = persistent_entropy(values)
    assert 0.0 <= h <= math.log(len(values)) + 1e-9


pair_lists = st.lists(
    st.tuples(st.floats(0, 3), st.floats(0, 3)).map(
        lambda t: (min(t), min(t) + abs(t[1] - t[0]))),
    max_size=4)


@settings(max_examples=60, deadline=None)
@given(pair_lists, pair_lists)
def test_bottleneck_symmetric_and_matches_oracle(x, y):
    v1, _ = bottleneck(x, y)
    v2, _ = bottleneck(y, x)
    assert abs(v1 - v2) <= 1e-15
    assert abs(v1 - brute_bottleneck(x, y)) <= 1e-12


points_2d = st.lists(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(points_2d)
def test_rips_output_is_canonically_sorted(pts):
    cloud = PointCloud.from_points(pts)
    filt = build_rips(cloud, FiltrationSpec(method="rips", max_hom_dim=1))
    assert sort_filtration(filt) == filt


def _outcome(check, filt_or_entries):
    """What a filtration check returns, or the (type, message) it raises."""
    try:
        return check(filt_or_entries)
    except ValidationError as exc:
        return type(exc), str(exc)


def _corrupt(entries, how, rng):
    """A copy of canonically sorted entries broken in one way."""
    out = list(entries)
    i, j = sorted(rng.choice(len(out), size=2, replace=False).tolist())
    if how == "swap":
        out[i], out[j] = out[j], out[i]
    elif how == "duplicate":
        out.insert(j, out[i])
    elif how == "drop":
        del out[i]
    else:  # raise a face above its cofaces, then sort again
        out[i] = (out[i][0], out[-1][1] + 1.0)
        out.sort(key=lambda e: (e[1], len(e[0]), e[0]))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]),
       st.sampled_from(["rips", "delaunay_rips", "alpha"]), st.data())
def test_array_check_equals_dict_reference(seed, dim, method, data):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(dim + 2, 9 if method == "rips" else 30))
    cloud = PointCloud.from_points(rng.uniform(-1.0, 1.0, (n, dim)))
    maxdim = data.draw(st.integers(0, dim - 1), label="max_hom_dim")
    filt = build(cloud, FiltrationSpec(method=method, max_hom_dim=maxdim))
    assert (boundary_matrix(filt).columns
            == tuple(naive_boundary_columns(filt.entries)))
    how = data.draw(st.sampled_from(["swap", "duplicate", "drop", "raise"]),
                    label="corruption")
    broken = _corrupt(filt.entries, how, rng)
    got = _outcome(lambda f: boundary_matrix(f).columns,
                   Filtration(entries=broken, max_dim=filt.max_dim))
    want = _outcome(lambda e: tuple(naive_boundary_columns(e)), broken)
    assert got == want
