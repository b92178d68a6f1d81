import hashlib
import math

import numpy as np
import pytest

from delrips import (ShapeClass, add_noise, epsilon_perturb, hausdorff_distance,
                     near_cocircular_quad, sample_shape)
from delrips.datagen import SHAPE_KINDS
from delrips.errors import UnknownShape, ValidationError
from delrips.geometry import min_pairwise_distance


def residual(kind, pts):
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    if kind == "circle":
        return np.maximum(np.abs(x * x + y * y - 1.0), np.abs(z))
    if kind == "sphere":
        return np.abs(x * x + y * y + z * z - 1.0)
    if kind == "torus":
        return np.abs((np.sqrt(x * x + y * y) - 2.0) ** 2 + z * z - 1.0)
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_samples_lie_on_manifold(kind):
    cloud = sample_shape(ShapeClass(kind=kind), 300, seed=4)
    assert cloud.dim == 3 and len(cloud) == 300
    assert residual(kind, cloud.points).max() < 1e-12


def test_random_inside_cube():
    cloud = sample_shape(ShapeClass(kind="random"), 200, seed=1)
    assert np.abs(cloud.points).max() <= 1.0


def test_cluster_shapes_have_expected_structure():
    three = sample_shape(ShapeClass(kind="three_clusters"), 90, seed=2)
    pts = three.points
    # Points assigned round-robin to three centers two units apart.
    centers = np.array([pts[i::3].mean(axis=0) for i in range(3)])
    d01 = np.linalg.norm(centers[0] - centers[1])
    assert d01 == pytest.approx(2.0, abs=0.15)
    nested = sample_shape(ShapeClass(kind="nested_clusters"), 180, seed=3)
    sub_centers = np.array([nested.points[i::9].mean(axis=0)
                            for i in range(9)])
    d_sub = np.linalg.norm(sub_centers[0] - sub_centers[1])
    assert d_sub == pytest.approx(0.4, abs=0.05)


def test_determinism_and_seed_sensitivity():
    a = sample_shape(ShapeClass(kind="sphere"), 50, seed=7)
    b = sample_shape(ShapeClass(kind="sphere"), 50, seed=7)
    c = sample_shape(ShapeClass(kind="sphere"), 50, seed=8)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_shape_validation():
    with pytest.raises(UnknownShape):
        ShapeClass(kind="klein_bottle")
    with pytest.raises(ValidationError):
        ShapeClass(kind="circle", params={"minor_radius": 1.0})
    with pytest.raises(ValidationError):
        sample_shape(ShapeClass(kind="circle"), 0, seed=0)


@pytest.mark.parametrize("kind, params, message", [
    # A 0/0 acceptance ratio: the torus sampler never returned.
    ("torus", {"major_radius": 0.0, "minor_radius": 0.0},
     "^major_radius 0.0 is not a finite number > 0$"),
    # A negative radius: a RuntimeWarning from the sampler.
    ("torus", {"major_radius": 1.0, "minor_radius": -1.0}, "^minor_radius -1.0 is not"),
    ("torus", {"major_radius": 1.0, "minor_radius": 1.5}, "<= major_radius"),
    ("circle", {"radius": 0.0}, "^radius 0.0 is not a finite number > 0$"),
    ("sphere", {"radius": math.inf}, "^radius inf is not"),
    ("sphere", {"radius": math.nan}, "^radius nan is not"),
    ("sphere", {"radius": True}, "^radius True is not"),
    ("sphere", {"radius": "1.0"}, "^radius '1.0' is not"),
    ("sphere", {"radius": None}, "^radius None is not"),
    ("random", {"half_width": -1.0}, "^half_width -1.0 is not"),
    ("three_clusters", {"side": 0}, "^side 0 is not"),
    ("three_clusters", {"spread": -0.1}, "^spread -0.1 is not a finite number >= 0$"),
    ("nested_clusters", {"sub_side": 0.0}, "^sub_side 0.0 is not"),
    ("nested_clusters", {"spread": math.inf}, "^spread inf is not"),
])
def test_shape_parameters_are_checked(kind, params, message):
    with pytest.raises(ValidationError, match=message):
        ShapeClass(kind=kind, params=params)


@pytest.mark.parametrize("kind, params", [
    ("torus", {"major_radius": 1.0, "minor_radius": 1.0}),
    ("three_clusters", {"spread": 0.0}), ("sphere", {"radius": np.float64(2)}),
    ("circle", {"radius": 3}),
])
def test_shape_parameters_at_their_bounds_sample(kind, params):
    cloud = sample_shape(ShapeClass(kind=kind, params=params), 20, seed=1)
    assert len(cloud) == 20


@pytest.mark.parametrize("n", [2.5, 0, -3, True, "5", None])
def test_sample_size_must_be_a_positive_integer(n):
    with pytest.raises(ValidationError, match="n must be an integer >= 1"):
        sample_shape(ShapeClass(kind="sphere"), n, seed=0)
    assert len(sample_shape(ShapeClass(kind="sphere"), np.int64(3), seed=0)) == 3


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_seed_must_be_a_non_negative_integer(seed):
    # numpy raised its own ValueError or TypeError (None drew fresh entropy).
    cloud = sample_shape(ShapeClass(kind="sphere"), 5, seed=0)
    for call in (lambda: sample_shape(ShapeClass(kind="sphere"), 5, seed),
                 lambda: add_noise(cloud, 0.1, seed),
                 lambda: add_noise(cloud, 0.0, seed),
                 lambda: epsilon_perturb(cloud, 1e-3, seed)):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            call()
    assert len(sample_shape(ShapeClass(kind="sphere"), 5, np.int64(2))) == 5


@pytest.mark.parametrize("nu", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_add_noise_rejects_nu_not_finite_and_non_negative(nu):
    # NaN used to reach the points and be reported as a non-finite point.
    cloud = sample_shape(ShapeClass(kind="sphere"), 5, seed=0)
    with pytest.raises(ValidationError, match=r"^nu must be a finite number >= 0$"):
        add_noise(cloud, nu, seed=1)


def test_add_noise_zero_is_identity():
    cloud = sample_shape(ShapeClass(kind="circle"), 40, seed=0)
    assert add_noise(cloud, 0.0, seed=1) is cloud


def test_add_noise_bounded_by_nu():
    cloud = sample_shape(ShapeClass(kind="sphere"), 100, seed=0)
    for nu in (0.01, 0.1, 0.5):
        noisy = add_noise(cloud, nu, seed=5)
        moved = np.linalg.norm(noisy.points - cloud.points, axis=1)
        assert moved.max() <= nu
        assert hausdorff_distance(cloud, noisy) <= nu


def test_quad_construction_and_bounds():
    pc = near_cocircular_quad(0.0)
    assert len(pc) == 4
    norms = np.linalg.norm(pc.points, axis=1)
    assert np.allclose(norms, 1.0)
    with pytest.raises(ValidationError):
        near_cocircular_quad(2.0 - math.sqrt(3.0))


# SHA-256 of the exact coordinates (``float.hex``) of the clouds made from
# each seed below, as the per-float conversion of earlier releases made them.
GENERATED_DIGESTS = {
    1: "fa37e9e0876c67a1dfc1c19ee8e6a4ba5ca2c89a625fd4e39d4b3ab7d1e7642b",
    2: "2544fd936922dba042d89f4d109042401aa6ead341b4d63a8f6b77a056f85fa9",
    3: "213aee2530d5312097077d67e4b06ea6f8144010e7e4ba51d062b0fdea601f3e",
    4: "8049ed18e8ddb110e5b45a5e8fd1672b5fa625219d60261c377b166d28dbaaac",
    5: "cd99991df12bca8491284b430a800eefb50d2726bd764bd4e9edf9310306769c",
}


@pytest.mark.parametrize("seed", sorted(GENERATED_DIGESTS))
def test_generated_clouds_keep_their_bits(seed):
    h = hashlib.sha256()
    for kind in SHAPE_KINDS:
        shape = sample_shape(ShapeClass(kind=kind), 60, seed)
        noisy = add_noise(shape, 0.1, seed + 1)
        pair = epsilon_perturb(noisy, 0.25 * min_pairwise_distance(noisy), seed + 2)
        for cloud in (shape, noisy, pair.target):
            for p in cloud.points:
                h.update((" ".join(x.hex() for x in p) + "\n").encode())
            h.update(b"--\n")
    assert h.hexdigest() == GENERATED_DIGESTS[seed]
