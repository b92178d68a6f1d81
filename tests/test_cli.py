import hashlib
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


def test_point_cloud_files_keep_their_bytes(tmp_path):
    # Bytes written for this cloud before clouds were held as arrays.
    cloud = PointCloud.from_points([(0.1, -0.0, 2.0 ** -1074),
                                    (1e300, -2.5, 1 / 3),
                                    (12345.678901234, 1e-12, -7.0)])
    big = ("1000000000000000052504760255204420248704468581108159154915854115"
           "5118024579889081957863713750804478640437044438328838781769425232"
           "3536043057564479218478670698284838720092657580373783023379478809"
           "0059368953234970799945081119038967640880074652742780142494579258"
           "788820056842838115669472196386865459400540160")
    want = {
        ("c.csv", 10): f"0.1,0,4.940656458e-324\n{big},-2.5,0.3333333333\n"
                       "12345.678901234,1e-12,-7\n",
        ("c.csv", 3): f"0.1,0,4.94e-324\n{big},-2.5,0.333\n"
                      "12345.679,1e-12,-7\n",
        ("c.json", 10): "[[0.1, -0.0, 5e-324], [1e+300, -2.5, "
                        "0.3333333333333333], [12345.678901234, 1e-12, "
                        "-7.0]]\n",
    }
    for (name, precision), text in want.items():
        write_point_cloud(tmp_path / name, cloud, precision)
        assert (tmp_path / name).read_bytes() == text.encode()


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


def test_generate_with_a_negative_seed_is_a_validation_error(tmp_path, capsys):
    # It exited 1 with numpy's ValueError traceback.
    out = tmp_path / "c.csv"
    assert main(["generate", "--shape", "circle", "--n", "10", "--seed", "-1",
                 "-o", str(out)]) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_embed_command(tmp_path):
    series = tmp_path / "series.csv"
    series.write_text("\n".join(str(i) for i in range(15)) + "\n")
    out = tmp_path / "cloud.csv"
    assert main(["embed", str(series), "--dim", "3", "--tau", "5",
                 "--stride", "1", "-o", str(out)]) == 0
    cloud = read_point_cloud(out)
    assert len(cloud) == 5
    assert cloud[0].tolist() == [0.0, 5.0, 10.0]


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


@pytest.mark.parametrize("option", [["--resolution", "0x5"],
                                    ["--resolution", "5x1", "--sigma", "inf"]])
def test_vectorize_pi_bad_grid_is_validation_error(tmp_path, capsys, option):
    diag = tmp_path / "d.csv"
    diag.write_text("0,0,1\n0,0.5,2\n")
    out = tmp_path / "pi.csv"
    assert main(["vectorize", "pi", str(diag), "--maxdim", "0", *option,
                 "-o", str(out)]) == 2
    assert "error: " in capsys.readouterr().err and not out.exists()


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


def test_demo_instability_rejects_large_x(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo-instability", "--x-values=0.01,0.3", "-o",
                 str(out)]) == 2
    assert "x must be below 2 - sqrt(3)" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("methods,maxdim", [("dr,rips", "-1"), ("dr", "3"),
                                            ("alpha", "3")])
def test_bench_command_rejects_invalid_spec(tmp_path, capsys, methods, maxdim):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "12", "--methods", methods, "--maxdim",
                 maxdim, "--trials", "1", "-o", str(out)]) == 2
    assert "max_hom_dim" in capsys.readouterr().err
    assert not out.exists()


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
    ["bench", "--timeout", "-1", "-o", "b.csv"],
    ["bench", "--timeout", "0", "-o", "b.csv"],
    ["bench", "--timeout", "nan", "-o", "b.csv"],
    ["bench", "--timeout", "inf", "-o", "b.csv"],
    ["bench", "--timeout", "x", "-o", "b.csv"],
    # A negative or NaN noise was ignored and a noiseless cloud written.
    ["generate", "--shape", "sphere", "--n", "5", "--noise", "-1", "-o", "c.csv"],
    ["generate", "--shape", "sphere", "--n", "5", "--noise", "nan", "-o", "c.csv"],
    ["generate", "--shape", "sphere", "--n", "5", "--noise", "inf", "-o", "c.csv"],
    ["bench", "--nu", "-0.1", "-o", "b.csv"],
    ["bench", "--nu", "nan", "-o", "b.csv"],
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
        write_point_cloud(path, PointCloud.from_points(cloud.points * scale))
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


# SHA-256 of the files below as written before diagrams were held as arrays
# and persistence images accumulated in blocks: 200-point noisy spheres of
# seeds 7 and 8, every number written with 17 decimals.
GOLDEN_SHA256 = {
    "s7_h0.csv": "1597614e96908ef0b3b0f4d21385601cdd24494ffb4fac36628b1f1bfdf000f6",
    "s7_h1.csv": "e03ffb5b580f60dd553d9fcad5fadb14b3fca94ddfd906e5038d97dc23599c0a",
    "s7_h2.csv": "b881622560f0a7b0fb197a53f6c73573375aeaa87fef177455652a39d50cd5e6",
    "s8_h0.csv": "e55c2d441903ed728163797841a3bc3fa3d0f12e595a9b761675438615d3976f",
    "s8_h1.csv": "e6344bd8be4bb855c7710cfa0410d2135fc2400f2452abb7bf22d6fbe5142fe4",
    "s8_h2.csv": "0b701f08f3469dd90479158c493c33f6a8a38ef6028b4834fb22850a67cfdd02",
    "pi.csv": "d51a871f183faadd8380583e21ef0faf19e7964e8865390a8be7298b1d02990c",
    "stats.csv": "1057659790e34fffe4fa002ada4af7fea5b071123f48455b35cb28fa2fc6a180",
    "bottleneck": "6fa5a828ff0670d3b9031beb314552f5639d068593c0aa3a5ba98cd522dde701",
}


def golden_outputs(tmp_path, capsys) -> dict:
    """Run ``pd``, ``vectorize pi``, ``vectorize stats`` and ``bottleneck``
    on two fixed noisy spheres; the SHA-256 of each output, by name."""
    prec = ["--precision", "17"]
    diagrams = []
    for seed in (7, 8):
        cloud = tmp_path / f"s{seed}.csv"
        assert main(["generate", "--shape", "sphere", "--n", "200", "--noise",
                     "0.1", "--seed", str(seed), "-o", str(cloud)] + prec) == 0
        assert main(["pd", "--method", "dr", "--maxdim", "2", str(cloud),
                     "-o", str(tmp_path / "pd")] + prec) == 0
        diagrams += [tmp_path / "pd" / f"s{seed}_h{p}.csv" for p in range(3)]
    names = [str(d) for d in diagrams]
    assert main(["vectorize", "pi", *names, "--resolution", "20x20",
                 "-o", str(tmp_path / "pi.csv")] + prec) == 0
    assert main(["vectorize", "stats", *names,
                 "-o", str(tmp_path / "stats.csv")] + prec) == 0
    capsys.readouterr()
    for p in range(3):
        assert main(["bottleneck", names[p], names[3 + p], "--dim", str(p)]
                    + prec) == 0
    out = {path.name: path.read_bytes() for path in diagrams}
    out["pi.csv"] = (tmp_path / "pi.csv").read_bytes()
    out["stats.csv"] = (tmp_path / "stats.csv").read_bytes()
    out["bottleneck"] = capsys.readouterr().out.encode()
    return {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}


def test_cli_outputs_keep_their_bytes(tmp_path, capsys):
    assert golden_outputs(tmp_path, capsys) == GOLDEN_SHA256
