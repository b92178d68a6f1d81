import math

import pytest

from delrips import ShapeClass, add_noise, sample_shape
from delrips import bench
from delrips.bench import run_cell, run_grid
from delrips.errors import ValidationError


def sphere_points(n, seed=0):
    cloud = add_noise(sample_shape(ShapeClass(kind="sphere"), n, seed),
                      0.1, seed + 1)
    return cloud.points


def test_cell_completes_within_budget():
    cell = run_cell("delaunay_rips", sphere_points(40), 1, trial=0,
                    timeout=30.0)
    assert cell.status == "ok"
    assert cell.seconds < 30.0
    assert cell.n_simplices and cell.n_simplices > 40
    assert cell.error is None


def test_failed_cell_reports_exception():
    collinear = [(float(i), 2.0 * i) for i in range(6)]
    cell = run_cell("delaunay_rips", collinear, 1, trial=0, timeout=30.0)
    assert cell.status == "failed"
    assert cell.n_simplices is None
    assert cell.error.startswith("AffinelyDegenerateInput: ")


def test_cell_timeout_recorded_at_cap():
    # Full Rips on 150 points cannot reduce within a token budget.
    cell = run_cell("rips", sphere_points(150), 1, trial=0, timeout=0.3)
    assert cell.status == "timeout"
    assert cell.seconds == 0.3
    assert cell.n_simplices is None


def test_grid_medians_and_cloud_sharing():
    cells, medians = run_grid(ShapeClass(kind="sphere"), nu=0.1, sizes=[20],
                              methods=["delaunay_rips", "alpha"],
                              max_hom_dim=1, trials=3, timeout=20.0, seed=5)
    assert len(cells) == 6
    assert {m for m, _, _ in medians} == {"delaunay_rips", "alpha"}
    assert all(c.status == "ok" for c in cells)
    by_method = {}
    for c in cells:
        by_method.setdefault(c.method, []).append(c.n_simplices)
    # Same clouds per trial: identical complexes for the two Delaunay-backed
    # methods.
    assert by_method["delaunay_rips"] == by_method["alpha"]


@pytest.mark.parametrize("timeout", [-1.0, 0, 0.0, math.inf, math.nan, "7"])
def test_timeout_must_be_positive_finite(timeout):
    # A cloud that builds in milliseconds was reported as a timeout at a
    # negative cap; now neither entry point starts a cell.
    with pytest.raises(ValidationError, match="positive finite"):
        run_cell("delaunay_rips", sphere_points(20), 1, 0, timeout)
    with pytest.raises(ValidationError, match="positive finite"):
        run_grid(ShapeClass(kind="sphere"), nu=0.1, sizes=[20],
                 methods=["delaunay_rips"], max_hom_dim=1, trials=1,
                 timeout=timeout, seed=5)


@pytest.mark.parametrize("seed", [-1, 2.5])
def test_invalid_seed_starts_no_cell(seed, monkeypatch):
    # A seed of -1 made clouds from the seeds n - 1, n, ... and ran; 2.5
    # failed in numpy after the first sizes' clouds were made.
    def fail(*args):
        pytest.fail("a cell was started")

    monkeypatch.setattr(bench, "run_cell", fail)
    with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
        run_grid(ShapeClass(kind="sphere"), nu=0.1, sizes=[20],
                 methods=["delaunay_rips"], max_hom_dim=1, trials=1,
                 timeout=7.0, seed=seed)


@pytest.mark.parametrize("methods,max_hom_dim", [
    (["rips"], -1), (["delaunay_rips"], 3), (["rips", "alpha"], 3),
    (["delaunay_rips"], 1.5)])
def test_invalid_spec_starts_no_cell(methods, max_hom_dim, monkeypatch):
    # Such a spec fails every cell in its child, and each would enter the
    # medians at the cap: the grid raises before the first cell.
    def fail(*args):
        pytest.fail("a cell was started")

    monkeypatch.setattr(bench, "run_cell", fail)
    with pytest.raises(ValidationError, match="max_hom_dim"):
        run_grid(ShapeClass(kind="sphere"), nu=0.1, sizes=[20],
                 methods=methods, max_hom_dim=max_hom_dim, trials=1,
                 timeout=7.0, seed=5)


@pytest.mark.parametrize("method,max_hom_dim,dim,match", [
    ("delaunay_rips", -1, 3, "max_hom_dim"), ("rips", 1.5, 3, "max_hom_dim"),
    ("delaunay_rips", 3, 3, "max_hom_dim"), ("alpha", 2, 2, "max_hom_dim"),
    ("voronoi", 1, 3, "unknown method")])
def test_invalid_cell_starts_no_child(method, max_hom_dim, dim, match,
                                      monkeypatch):
    # Such a cell failed in its child only after waiting out the cap.
    def fail(*args):
        pytest.fail("a child was started")

    monkeypatch.setattr(bench.mp, "get_context", fail)
    points = sphere_points(20)[:, :dim]
    with pytest.raises(ValidationError, match=match):
        run_cell(method, points, max_hom_dim, 0, 10.0)
