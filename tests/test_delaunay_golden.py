"""Golden Delaunay outputs: exact triangulations and tie-break flags.

Each digest is the SHA-256 of ``repr(top_simplices)`` followed by the
``degenerate`` flag, recorded from the face-dictionary Bowyer-Watson that
preceded the slot/neighbor structure. The corpus covers the benchmark's
sphere and the adversarial families (jittered grids, an integer grid, a
regular polygon, cube corners, exactly cospherical points, a near-planar
cloud, extreme scales), so a change to the walk, the cavity or the tie-break
scan that alters any output shows up here.
"""

import hashlib
import importlib
import math

import pytest
import scipy.spatial

from delrips import PointCloud, ShapeClass, add_noise, delaunay, sample_shape
from delrips import predicates
from delrips.delaunay import _prescaled, _Triangulation
from families import (jittered_grid, jittered_grid_member, near_planar,
                      near_planar_member, uniform)

DELAUNAY_MODULE = importlib.import_module("delrips.delaunay")


def _cospherical():
    # Integer solutions of x^2 + y^2 + z^2 = 9^2: exactly cospherical.
    pts = set()
    for x in range(-9, 10):
        for y in range(-9, 10):
            z2 = 81 - x * x - y * y
            z = math.isqrt(max(z2, 0))
            if z2 >= 0 and z * z == z2:
                pts.update({(x, y, z), (x, y, -z)})
    return sorted(pts)


CORPUS = {
    "dr-sphere3d-seed1": lambda: add_noise(
        sample_shape(ShapeClass(kind="sphere"), 2000, 1000), 0.1, 1001).points,
    "jittered-grid-2d": lambda: jittered_grid(2, 60, 11),
    "jittered-grid-3d": lambda: jittered_grid(3, 50, 12),
    "integer-grid-3x3x2": lambda: [(i, j, k) for i in range(3)
                                   for j in range(3) for k in range(2)],
    "regular-12-gon": lambda: [(math.cos(2 * math.pi * k / 12),
                                math.sin(2 * math.pi * k / 12))
                               for k in range(12)],
    "cube-corners": lambda: [(i, j, k) for i in (0, 1) for j in (0, 1)
                             for k in (0, 1)],
    "cospherical-r9": _cospherical,
    "near-planar-3d": lambda: near_planar(40, 13, 1e-12),
    "tiny-2d": lambda: uniform(2, 60, 14) * 2.0 ** -664,
    "tiny-3d": lambda: uniform(3, 60, 15) * 2.0 ** -664,
    "huge-2d": lambda: uniform(2, 60, 16) * 1e150,
    "huge-3d": lambda: uniform(3, 60, 17) * 1e150,
}

GOLDEN = {
    "cospherical-r9":
        "32a0b3b1358acd94868fe756583785d4cfc17395d15481b4f0214769ba54af9a",
    "cube-corners":
        "cc27664f2c2561849297ffc29ffa45dcbd969577d36e287402214c3b26439563",
    "dr-sphere3d-seed1":
        "2e23ffd799dab7c05c1c9e1dc23817c57c6effbaa225aace93c2a3524fa0112e",
    "huge-2d":
        "b5edbadcda06ad7022ab1ca8fe776230a4ccfed5e5af65bc5d7c0030b4393b60",
    "huge-3d":
        "b306b753ed59112277595993573007e24d6fbbb17d7f13ce1cfa263289211479",
    "integer-grid-3x3x2":
        "0f45ef7a65be3ea018e0c6153cca00cfe4282122992441bee322621ab6d090e6",
    "jittered-grid-2d":
        "edc5df67393780753458a849356bd08e74a7004d5b1bd745c264ed26821dfaad",
    "jittered-grid-3d":
        "6eb34d5f4e8064eaca2bcf7351dc781122e71199fac682ca0d32f2048644b6c7",
    "near-planar-3d":
        "524befa3c56e798296f38002c0be1675eeb89775c0f686985cdd23df8f78fdf5",
    "regular-12-gon":
        "52808f35a7fa4b8e527d6f4e380755cd32e8af8e2a0e28236838d0d4d49efb97",
    "tiny-2d":
        "e66e31138a19736a5724f7abd29a147567a78464ccd97667158af19fe7d7505d",
    "tiny-3d":
        "40c959761aa77347aef77b417f7c4315a027636c2100731fd985ac969933242e",
}


def _digest(dc):
    text = f"{dc.top_simplices!r}\n{dc.degenerate}\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_triangulation(name):
    cloud = PointCloud.from_points(CORPUS[name]())
    assert _digest(delaunay(cloud)) == GOLDEN[name]


@pytest.mark.parametrize("dim", [2, 3])
def test_matches_qhull_at_n2000(dim):
    # Generic uniform clouds: the triangulation is unique, so it must equal
    # Qhull's simplex for simplex.
    pts = uniform(dim, 2000, 20 + dim)
    dc = delaunay(PointCloud.from_points(pts))
    want = {tuple(sorted(int(v) for v in s))
            for s in scipy.spatial.Delaunay(pts).simplices}
    assert not dc.degenerate
    assert set(dc.top_simplices) == want


# The corpus clouds whose triangulation needed the tie-break, recorded with
# the neighbor-pair scan that preceded the Delaunay certificate.
DEGENERATE = {"cospherical-r9", "cube-corners", "integer-grid-3x3x2"}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_degenerate_flag(name):
    cloud = PointCloud.from_points(CORPUS[name]())
    assert delaunay(cloud).degenerate == (name in DEGENERATE)


@pytest.mark.parametrize("name, unscaled", [
    ("tiny-2d", (2, 60, 14)), ("tiny-3d", (3, 60, 15)),
    ("huge-2d", (2, 60, 16)), ("huge-3d", (3, 60, 17))])
def test_extreme_scales_stay_on_the_float_filter(name, unscaled, monkeypatch):
    # Unscaled, these clouds took 605 to 3489 exact evaluations each: the
    # filter underflowed near 2**-664 and overflowed near 1e150.
    calls = []
    real = predicates._exact_sign
    monkeypatch.setattr(predicates, "_exact_sign",
                        lambda *a: calls.append(1) or real(*a))
    delaunay(PointCloud.from_points(uniform(*unscaled)))
    unscaled_calls = len(calls)
    calls.clear()
    cloud = PointCloud.from_points(CORPUS[name]())
    dc = delaunay(cloud)
    assert len(calls) <= unscaled_calls + 10
    assert dc.cloud is cloud


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_output_does_not_depend_on_the_walk_start(name, monkeypatch):
    # The walk only seeds the cavity search, so starting every walk at the
    # last simplex created instead of the nested-grid start changes nothing.
    monkeypatch.setattr(_Triangulation, "_start", lambda self, p: self.last)
    cloud = PointCloud.from_points(CORPUS[name]())
    assert _digest(delaunay(cloud)) == GOLDEN[name]


def test_nested_grid_start_bounds_the_walk(monkeypatch):
    # Scalar orient3d calls on the benchmark sphere: 47,523 when the walk
    # started in the point's own cell of a single grid, else at the last
    # simplex created.
    calls = []
    real = DELAUNAY_MODULE._cloud_predicates

    def counted(pts):
        orient, inball_from = real(pts)
        return (lambda *a: calls.append(1) or orient(*a)), inball_from

    monkeypatch.setattr(DELAUNAY_MODULE, "_cloud_predicates", counted)
    delaunay(PointCloud.from_points(CORPUS["dr-sphere3d-seed1"]()))
    assert len(calls) <= 35_000


def _plain_predicates(pts):
    """The cloud predicates with every static tier off, the in-ball test
    from a fixed query point included."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predicates, "_static_bounds", lambda pts: (None, None))
        return predicates._cloud_predicates(pts)


def _counting(make, tests):
    """``make``'s cloud predicates, each orient and in-ball test appending
    to ``tests``."""
    def counted(pts):
        orient, inball_from = make(pts)

        def counted_from(p):
            inball = inball_from(p)
            return lambda vs: tests.append("inball") or inball(vs)
        return (lambda *a: tests.append("orient") or orient(*a)), counted_from
    return counted


def _tops_and_flag(cloud):
    dc = delaunay(cloud)
    return dc.faces(cloud.dim).tolist(), dc.degenerate


def test_static_tier_changes_no_triangulation(monkeypatch):
    # Every family member and the 2000-point noisy sphere give the same
    # sorted tops and tie-break flag with the static tier as without it.
    # Both runs test in-balls from a fixed query point; without the tier
    # every test reaches the permanent filter.
    clouds = ([jittered_grid_member(dim, seed)
               for dim in (2, 3) for seed in range(150)]
              + [near_planar_member(seed) for seed in range(50)])
    clouds = [PointCloud.from_points(pts) for pts in clouds]
    clouds.append(PointCloud.from_points(CORPUS["dr-sphere3d-seed1"]()))
    filtered = []
    real = predicates._certified
    monkeypatch.setattr(predicates, "_certified",
                        lambda *a: filtered.append(1) or real(*a))
    tests = []
    monkeypatch.setattr(DELAUNAY_MODULE, "_cloud_predicates",
                        _counting(predicates._cloud_predicates, tests))
    tiered = [_tops_and_flag(cloud) for cloud in clouds]
    assert "inball" in tests  # the tiered run used the new path
    assert len(filtered) < len(tests) // 10
    tests.clear()
    filtered.clear()
    monkeypatch.setattr(DELAUNAY_MODULE, "_cloud_predicates",
                        _counting(_plain_predicates, tests))
    plain = [_tops_and_flag(cloud) for cloud in clouds]
    assert "inball" in tests
    assert len(filtered) >= len(tests)
    assert tiered == plain
    assert all(None not in predicates._static_bounds(_prescaled(c.points)[1])
               for c in clouds)  # the tier was on for every cloud
