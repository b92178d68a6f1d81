"""Hypothesis property suites for the algebraic pieces."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from delrips import (FiltrationSpec, PointCloud, bottleneck, build_rips,
                     delay_embed, persistent_entropy, sort_filtration)
from delrips.fileio import fmt_float
from delrips.persistence import _sym_diff
from naive_oracle import brute_bottleneck

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
