import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delrips import (FiltrationSpec, PointCloud, build_delaunay_rips,
                     compute_diagram, delaunay, hausdorff_distance,
                     near_cocircular_quad)
from delrips.cli import main
from delrips.fileio import (read_diagram, read_point_cloud, write_diagram,
                            write_point_cloud)
from delrips import bottleneck
from families import jittered_grid_member, near_planar_member


def quad_file(tmp_path, x=0.1, name="quad.csv"):
    path = tmp_path / name
    write_point_cloud(path, near_cocircular_quad(x), precision=16)
    return path


def test_pd_dr_maxdim1_file_contents(tmp_path, capsys):
    path = quad_file(tmp_path)
    assert main(["pd", "--method", "dr", "--maxdim", "1", str(path)]) == 0
    h1 = (tmp_path / "quad_h1.csv").read_text()
    assert h1 == "1,1.7320508076,1.9\n"
    h0 = (tmp_path / "quad_h0.csv").read_text().splitlines()
    assert h0 == ["0,0,0.9539392014", "0,0,0.9539392014",
                  "0,0,1.7320508076", "0,0,inf"]


def test_pd_keep_zero_pairs_flag(tmp_path):
    path = quad_file(tmp_path)
    assert main(["pd", "--method", "dr", "--maxdim", "1", str(path),
                 "--keep-zero-pairs"]) == 0
    h1 = (tmp_path / "quad_h1.csv").read_text().splitlines()
    assert h1 == ["1,1.7320508076,1.9", "1,1.9,1.9"]


def test_pd_single_point_rips(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("0.5,0.5\n")
    assert main(["pd", "--method", "rips", "--maxdim", "0", str(path)]) == 0
    assert (tmp_path / "one_h0.csv").read_text() == "0,0,inf\n"


def test_pd_deterministic_bytes(tmp_path):
    path = quad_file(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    main(["pd", "--method", "dr", "--maxdim", "1", str(path), "-o", str(out1)])
    main(["pd", "--method", "dr", "--maxdim", "1", str(path), "-o", str(out2)])
    for p in range(2):
        assert ((out1 / f"quad_h{p}.csv").read_bytes()
                == (out2 / f"quad_h{p}.csv").read_bytes())


def test_diagram_round_trip(tmp_path):
    diag = compute_diagram(build_delaunay_rips(
        near_cocircular_quad(0.1), FiltrationSpec(max_hom_dim=1)))
    path = tmp_path / "quad_diag.csv"
    write_diagram(path, diag, keep_zero=True)
    reread = read_diagram(path)
    for p in (0, 1):
        value, _ = bottleneck(diag.pairs(p), reread.pairs(p))
        assert value < 1e-9  # file precision quantizes at 1e-10
    jpath = tmp_path / "quad_diag.json"
    write_diagram(jpath, diag, keep_zero=True)
    assert read_diagram(jpath) == diag  # json keeps full precision


def test_point_cloud_json_round_trip(tmp_path):
    cloud = near_cocircular_quad(0.1)
    path = tmp_path / "quad.json"
    write_point_cloud(path, cloud)
    assert read_point_cloud(path) == cloud
    assert main(["pd", "--method", "dr", "--maxdim", "1", str(path)]) == 0
    assert (tmp_path / "quad_h1.csv").read_text() == "1,1.7320508076,1.9\n"


def test_generate_and_hausdorff(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["generate", "--shape", "circle", "--n", "60",
                 "--seed", "3", "-o", str(a)]) == 0
    assert main(["generate", "--shape", "circle", "--n", "60",
                 "--seed", "3", "--noise", "0.05", "-o", str(b)]) == 0
    cloud = read_point_cloud(a)
    assert len(cloud) == 60 and cloud.dim == 3
    capsys.readouterr()
    assert main(["hausdorff", str(a), str(b)]) == 0
    out = capsys.readouterr().out.strip()
    assert 0.0 < float(out) <= 0.05


def test_embed_command(tmp_path):
    series = tmp_path / "series.csv"
    series.write_text("\n".join(str(i) for i in range(15)) + "\n")
    out = tmp_path / "cloud.csv"
    assert main(["embed", str(series), "--dim", "3", "--tau", "5",
                 "--stride", "1", "-o", str(out)]) == 0
    cloud = read_point_cloud(out)
    assert len(cloud) == 5
    assert cloud[0] == (0.0, 5.0, 10.0)


def test_bottleneck_command(tmp_path, capsys):
    d1 = tmp_path / "d1.csv"
    d2 = tmp_path / "d2.csv"
    d1.write_text("1,0,2\n")
    d2.write_text("1,0,3\n")
    assert main(["bottleneck", str(d1), str(d2), "--dim", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    d3 = tmp_path / "d3.csv"
    d3.write_text("1,0,inf\n")
    assert main(["bottleneck", str(d1), str(d3), "--dim", "1"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_vectorize_stats_command(tmp_path):
    paths = []
    for i, x in enumerate((0.05, 0.1)):
        diag = compute_diagram(build_delaunay_rips(
            near_cocircular_quad(x), FiltrationSpec(max_hom_dim=1)))
        p = tmp_path / f"d{i}.csv"
        write_diagram(p, diag, keep_zero=True)
        paths.append(str(p))
    out = tmp_path / "stats.csv"
    assert main(["vectorize", "stats", *paths, "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert len(lines[0].split(",")) == 48
    assert len(lines[1].split(",")) == 48
    assert "nan" in lines[1]  # empty H2 block


def test_vectorize_pi_command_55_features(tmp_path):
    paths = []
    for i, x in enumerate((0.05, 0.1, 0.2)):
        diag = compute_diagram(build_delaunay_rips(
            near_cocircular_quad(x), FiltrationSpec(max_hom_dim=1)))
        p = tmp_path / f"d{i}.csv"
        write_diagram(p, diag, keep_zero=True)
        paths.append(str(p))
    out = tmp_path / "pi.csv"
    # H2 diagrams are empty here, so fit only H0/H1 blocks.
    assert main(["vectorize", "pi", *paths, "--maxdim", "1",
                 "--resolution", "5x1,5x5", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines[0].split(",")) == 30
    assert len(lines) == 4


def test_demo_instability(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo-instability", "--x-values=-0.01,0.01,0.02",
                 "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "same_triangulation=False" in printed
    assert "same_triangulation=True" in printed
    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 3
    # Crossing x=0 jumps; same side moves by half the death shift.
    across = report[1].split(",")
    assert across[1] == "False"
    assert float(across[2]) == pytest.approx((1.99 - math.sqrt(3)) / 2)
    same_side = report[2].split(",")
    assert same_side[1] == "True"
    assert float(same_side[2]) == pytest.approx(0.01)
    assert (out / "x+0.0100_h1.csv").exists()


def test_demo_instability_prints_the_tie_break_flag(tmp_path, capsys):
    # fl(sqrt(3)/2) keeps the quad at x = 0 off the circle, so the exact
    # predicates see no tie there either.
    assert main(["demo-instability", "--x-values=-0.05,0.0,0.02",
                 "-o", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    for x in ("-0.05", "+0", "+0.02"):
        assert f"x={x}: delaunay degenerate=False" in printed
    assert not delaunay(near_cocircular_quad(0.0)).degenerate


def test_demo_instability_rejects_large_x(capsys):
    assert main(["demo-instability", "--x-values", "0.3"]) == 2


def test_bench_command_small(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--shape", "sphere", "--nu", "0.1",
                 "--sizes", "25", "--methods", "dr,rips", "--maxdim", "1",
                 "--trials", "2", "--timeout", "30", "--seed", "1",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,n,trial,seconds,n_simplices,status"
    body = [ln.split(",") for ln in lines[1:]]
    trials = [row for row in body if row[2] != "median"]
    medians = [row for row in body if row[2] == "median"]
    assert len(trials) == 4 and len(medians) == 2
    assert all(row[5] == "ok" for row in trials)


def test_bench_command_reports_failed_cells(tmp_path, capsys):
    # A noiseless circle is planar in R^3: every Delaunay cell fails.
    out = tmp_path / "bench.csv"
    assert main(["bench", "--shape", "circle", "--nu", "0", "--sizes", "12",
                 "--methods", "dr", "--maxdim", "1", "--trials", "1",
                 "--timeout", "30", "-o", str(out)]) == 0
    assert out.read_text().splitlines()[1] == \
        "delaunay_rips,12,0,30,,failed"
    err = capsys.readouterr().err
    assert "delaunay_rips n=12 trial 0: AffinelyDegenerateInput: " in err


def test_exit_codes(tmp_path, capsys):
    assert main(["pd", str(tmp_path / "missing.csv")]) == 4
    collinear = tmp_path / "line.csv"
    collinear.write_text("0,0\n1,1\n2,2\n3,3\n")
    assert main(["pd", "--method", "dr", str(collinear)]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0\nnot,a,number\n")
    assert main(["pd", str(bad)]) == 4
    pts = tmp_path / "ok.csv"
    pts.write_text("0,0\n1,0\n0,1\n")
    assert main(["pd", "--method", "dr", "--maxdim", "5", str(pts)]) == 2


def test_pd_duplicate_pair_is_compute_error(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("0,0\n0,0\n")
    for method in ("dr", "alpha"):
        assert main(["pd", "--method", method, "--maxdim", "0", str(path)]) == 3
        assert "points 0 and 1 coincide" in capsys.readouterr().err
    assert main(["pd", "--method", "rips", "--maxdim", "0", str(path)]) == 0


def test_pd_dr_tie_break_warns_and_writes_files(tmp_path):
    # A fresh interpreter, so the warning reaches stderr as a user sees it.
    path = tmp_path / "square.csv"
    path.write_text("0,0\n1,0\n0,1\n1,1\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    run = subprocess.run([sys.executable, "-m", "delrips", "pd", "--method",
                          "dr", "--maxdim", "1", str(path)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0
    assert "UserWarning: cospherical points" in run.stderr
    assert (tmp_path / "square_h0.csv").read_text() == "0,0,1\n" * 3 + "0,0,inf\n"
    assert (tmp_path / "square_h1.csv").read_text() == "1,1,1.4142135624\n"


@pytest.mark.parametrize("argv", [
    ["vectorize", "pi", "d.csv", "--resolution", "5", "-o", "f.csv"],
    ["bench", "--sizes", "abc", "-o", "b.csv"],
    ["bench", "--methods", "foo", "-o", "b.csv"],
    ["bench", "--trials", "0", "-o", "b.csv"],
    ["demo-instability", "--x-values=a"],
    ["bench", "--sizes", "100:500:0", "-o", "b.csv"],
    ["bench", "--sizes", "500:100:-100", "-o", "b.csv"],
    ["bench", "--sizes", "500:100", "-o", "b.csv"],
    ["bench", "--sizes", "1:2:3:4", "-o", "b.csv"],
    ["vectorize", "pi", "d.csv", "--resolution", "5xa", "-o", "f.csv"],
    ["bench", "--trials", "x", "-o", "b.csv"],
    ["hausdorff", "--precision", "-1", "a.csv", "b.csv"],
])
def test_malformed_option_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err
    # The message gives the expected format, not the parser function's name.
    assert "invalid _parse" not in err


@pytest.mark.parametrize("scale", [2.0 ** -664, 2.0 ** 532])
def test_hausdorff_at_extreme_scales(tmp_path, capsys, scale):
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1.0, 1.0, (30, 3))
    clouds = [PointCloud.from_points(pts),
              PointCloud.from_points(pts + rng.uniform(-0.1, 0.1, pts.shape))]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, cloud in zip(paths, clouds):
        write_point_cloud(path, PointCloud.from_points(cloud.as_array() * scale))
    capsys.readouterr()
    assert main(["hausdorff", *map(str, paths)]) == 0
    got = float(capsys.readouterr().out.strip())
    assert got > 0.0
    assert got == pytest.approx(scale * hausdorff_distance(*clouds), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("pts", [jittered_grid_member(2, 24),
                                 jittered_grid_member(3, 45),
                                 near_planar_member(16)],
                         ids=["jittered-grid-r2", "jittered-grid-r3",
                              "near-planar"])
def test_pd_alpha_on_regression_families(tmp_path, pts):
    # These clouds made Alpha raise DegenerateSimplex (exit 3), though
    # delaunay() accepts them.
    path = tmp_path / "cloud.json"
    write_point_cloud(path, PointCloud.from_points(pts))
    maxdim = pts.shape[1] - 1
    assert main(["pd", "--method", "alpha", "--maxdim", str(maxdim),
                 str(path)]) == 0
    assert len(read_diagram(tmp_path / "cloud_h0.csv").pairs(0)) == len(pts)
    assert (tmp_path / f"cloud_h{maxdim}.csv").exists()


def test_pd_alpha_at_huge_scale(tmp_path):
    # At 2**532 the circumsphere solve overflowed and the command exited 2
    # with "negative or NaN scale"; the values are now the unscaled cloud's
    # times 2**532.
    pts = np.random.default_rng(19).uniform(-1.0, 1.0, (30, 3))
    for name, scale in (("unit", 1.0), ("huge", 2.0 ** 532)):
        write_point_cloud(tmp_path / f"{name}.json",
                          PointCloud.from_points(pts * scale))
        assert main(["pd", "--method", "alpha", "--maxdim", "2",
                     "--keep-zero-pairs", str(tmp_path / f"{name}.json")]) == 0
    for p in range(3):
        unit = read_diagram(tmp_path / f"unit_h{p}.csv").pairs(p)
        huge = read_diagram(tmp_path / f"huge_h{p}.csv").pairs(p)
        assert len(huge) == len(unit)
        for (b, d), (ub, ud) in zip(huge, unit):
            assert b == pytest.approx(ub * 2.0 ** 532, rel=1e-9)
            assert d == pytest.approx(ud * 2.0 ** 532, rel=1e-9)
