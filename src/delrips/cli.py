"""Command-line interface.

Commands wrap the library operations one-to-one: generate, embed, pd,
bottleneck, hausdorff, vectorize pi|stats, bench, demo-instability. Exit
codes: 0 success, 2 validation error, 3 compute error (degenerate
geometry), 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import bench as bench_mod
from .core import PersistenceDiagram, _check_int, _check_real
from .datagen import SHAPE_KINDS, ShapeClass, add_noise, near_cocircular_quad, sample_shape
from .delaunay import delaunay
from .errors import (DelripsError, InfiniteDistance, InputFormatError,
                     ValidationError)
from .fileio import (DEFAULT_PRECISION, fmt_float, read_diagram,
                     read_point_cloud, read_series, write_diagram,
                     write_features_csv, write_point_cloud)
from .filtration import FiltrationSpec, build
from .geometry import hausdorff_distance, same_triangulation, PerturbationPairing
from .metrics import bottleneck
from .persistence import compute_diagram
from .vectorize import (delay_embed, fit_pi_grid, persistence_image,
                        stats_feature_vector, stats_header)

_METHOD_ALIASES = {"rips": "rips", "dr": "delaunay_rips",
                   "delaunay_rips": "delaunay_rips", "alpha": "alpha"}


def _parse_resolution(text: str):
    """Either one RxC, or a comma list of RxC blocks (one per dimension)."""
    try:
        blocks = []
        for part in text.split(","):
            r, _, c = part.lower().partition("x")
            blocks.append((int(r), int(c)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected RxC or a comma list of RxC blocks, got {text!r}") from None
    return blocks


def _parse_sizes(text: str):
    """start:stop[:step] (step 100 by default), or a comma list of sizes."""
    try:
        if ":" in text:
            parts = [int(v) for v in text.split(":")]
            if len(parts) > 3:
                raise ValueError(text)
            start, stop = parts[0], parts[1]
            step = parts[2] if len(parts) > 2 else 100
            _check_int("step", step, 1)
            sizes = list(range(start, stop + 1, step))
        else:
            sizes = [int(v) for v in text.split(",")]
    except (ValueError, ValidationError):
        raise argparse.ArgumentTypeError(
            f"expected start:stop[:step] or a comma list of integers, "
            f"got {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError(f"{text!r} gives no sizes")
    return sizes


def _parse_xs(text: str):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}") from None


def _parse_methods(text: str):
    try:
        return [_METHOD_ALIASES[m] for m in text.split(",")]
    except KeyError as exc:
        raise argparse.ArgumentTypeError(f"unknown method {exc}") from None


def _number(check, low, **bounds):
    """Argparse type: the text as an int (for ``_check_int``) or a float,
    if ``check`` accepts it, else a usage error with the check's message."""
    def parse(text: str):
        try:
            value = (int if check is _check_int else float)(text)
        except ValueError:
            value = text
        try:
            check("value", value, low, **bounds)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _filtration_spec(args) -> FiltrationSpec:
    return FiltrationSpec(method=_METHOD_ALIASES[args.method],
                          max_hom_dim=args.maxdim,
                          threshold=getattr(args, "threshold", None))


def _write_dimension(path, diag: PersistenceDiagram, p: int, args):
    """Write the dimension-p pairs of diag to one diagram file, with the
    command's ``--keep-zero-pairs`` and ``--precision``."""
    one = PersistenceDiagram.from_pairs({p: diag._pair_rows(p)})
    write_diagram(path, one, keep_zero=args.keep_zero_pairs,
                  precision=args.precision)


def cmd_generate(args) -> int:
    shape = ShapeClass(kind=args.shape)
    cloud = add_noise(sample_shape(shape, args.n, args.seed), args.noise,
                      args.seed + 1)
    write_point_cloud(args.output, cloud, args.precision)
    print(f"wrote {len(cloud)} points to {args.output}")
    return 0


def cmd_embed(args) -> int:
    series = read_series(args.input)
    cloud = delay_embed(series, args.dim, args.tau, args.stride)
    write_point_cloud(args.output, cloud, args.precision)
    print(f"wrote {len(cloud)} embedded points to {args.output}")
    return 0


def cmd_pd(args) -> int:
    cloud = read_point_cloud(args.input)
    spec = _filtration_spec(args)
    filt = build(cloud, spec)
    diag = compute_diagram(filt)
    outdir = Path(args.outdir) if args.outdir else Path(args.input).parent
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    for p in range(args.maxdim + 1):
        path = outdir / f"{stem}_h{p}.csv"
        _write_dimension(path, diag, p, args)
        print(f"wrote {path}")
    return 0


def cmd_bottleneck(args) -> int:
    x = read_diagram(args.diagram_a)._pair_rows(args.dim)
    y = read_diagram(args.diagram_b)._pair_rows(args.dim)
    try:
        value, _ = bottleneck(x, y, diagonal=args.diagonal_cost)
    except InfiniteDistance:
        print("inf")
        return 0
    print(fmt_float(value, args.precision))
    return 0


def cmd_hausdorff(args) -> int:
    p = read_point_cloud(args.cloud_a)
    q = read_point_cloud(args.cloud_b)
    print(fmt_float(hausdorff_distance(p, q), args.precision))
    return 0


def cmd_vectorize_pi(args) -> int:
    diagrams = [read_diagram(path) for path in args.diagrams]
    blocks = args.resolution
    dims = list(range(args.maxdim + 1))
    if len(blocks) == 1:
        blocks = blocks * len(dims)
    if len(blocks) != len(dims):
        raise ValidationError(
            f"{len(blocks)} resolution blocks for {len(dims)} dimensions")
    header = []
    columns = []
    for p, (rows, cols) in zip(dims, blocks):
        grid = fit_pi_grid([d._pair_rows(p) for d in diagrams],
                           resolution=(rows, cols), sigma=args.sigma)
        vecs = [persistence_image(d._pair_rows(p), grid) for d in diagrams]
        header.extend(f"pi_h{p}_r{r}_c{c}"
                      for r in range(rows) for c in range(cols))
        columns.append(vecs)
    rows_out = [[v for vecs in columns for v in vecs[i]]
                for i in range(len(diagrams))]
    write_features_csv(args.output, header, rows_out, args.precision)
    print(f"wrote {len(rows_out)} x {len(header)} feature matrix to {args.output}")
    return 0


def cmd_vectorize_stats(args) -> int:
    log_base = 2.0 if args.entropy_log == "base2" else math.e
    diagrams = [read_diagram(path) for path in args.diagrams]
    rows = [stats_feature_vector(*(d._pair_rows(p) for p in range(3)),
                                 log_base=log_base) for d in diagrams]
    write_features_csv(args.output, stats_header(), rows, args.precision)
    print(f"wrote {len(rows)} x 48 feature matrix to {args.output}")
    return 0


def cmd_bench(args) -> int:
    shape = ShapeClass(kind=args.shape)
    cells, medians = bench_mod.run_grid(
        shape, args.nu, args.sizes, args.methods, args.maxdim, args.trials,
        args.timeout, args.seed)
    lines = ["method,n,trial,seconds,n_simplices,status"]
    for c in cells:
        size = "" if c.n_simplices is None else str(c.n_simplices)
        lines.append(f"{c.method},{c.n},{c.trial},{fmt_float(c.seconds, 6)},"
                     f"{size},{c.status}")
        if c.error is not None:
            print(f"{c.method} n={c.n} trial {c.trial}: {c.error}", file=sys.stderr)
    for method, n, med in medians:
        lines.append(f"{method},{n},median,{fmt_float(med, 6)},,summary")
    Path(args.output).write_text("\n".join(lines) + "\n")
    for method, n, med in medians:
        print(f"{method} n={n}: median {med:.4f}s")
    print(f"wrote {args.output}")
    return 0


def cmd_demo_instability(args) -> int:
    xs = args.x_values
    quads = [near_cocircular_quad(x) for x in xs]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = FiltrationSpec(method="delaunay_rips", max_hom_dim=1)
    print("x-grid:", ", ".join(f"{x:+g}" for x in xs))
    runs = [(x, q, compute_diagram(build(q, spec))) for x, q in zip(xs, quads)]
    for x, cloud, diag in runs:
        print(f"x={x:+g}: delaunay degenerate={delaunay(cloud).degenerate}")
        for p in (0, 1):
            _write_dimension(outdir / f"x{x:+.4f}_h{p}.csv", diag, p, args)
    report = ["pair,same_triangulation,h1_bottleneck"]
    for (a, ca, da), (b, cb, db) in zip(runs, runs[1:]):
        eps = 1.01 * max(hausdorff_distance(ca, cb), 1e-12)
        same = same_triangulation(
            PerturbationPairing(source=ca, target=cb, epsilon=eps))
        w, _ = bottleneck(da._pair_rows(1), db._pair_rows(1),
                          diagonal=args.diagonal_cost)
        report.append(f"{a:+g} vs {b:+g},{same},{fmt_float(w, args.precision)}")
        print(f"x={a:+g} -> x={b:+g}: same_triangulation={same}, "
              f"H1 bottleneck={w:.6f}")
    (outdir / "report.csv").write_text("\n".join(report) + "\n")
    print(f"wrote diagrams and report.csv under {outdir}")
    return 0


def _add_common(p):
    p.add_argument("--precision", type=_number(_check_int, 0),
                   default=DEFAULT_PRECISION,
                   help="decimal places in numeric output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="delrips",
        description="Persistent homology of point clouds via Delaunay-Rips, "
                    "Vietoris-Rips, and Alpha filtrations.")
    sub = ap.add_subparsers(dest="command", required=True)
    fmt = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    p = sub.add_parser("generate", help="sample a synthetic shape class", **fmt)
    p.add_argument("--shape", choices=SHAPE_KINDS, required=True,
                   help="shape class to sample")
    p.add_argument("--n", type=int, default=500, help="number of points")
    p.add_argument("--noise", type=_number(_check_real, 0), default=0.0,
                   help="max magnitude of uniform-in-ball noise")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("-o", "--output", required=True, help="point file to write")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("embed", help="delay-embed a scalar series", **fmt)
    p.add_argument("input", help="series file: one value per line (or comma-separated)")
    p.add_argument("--dim", type=int, default=3, help="embedding dimension (2 or 3)")
    p.add_argument("--tau", type=int, default=5, help="delay between coordinates")
    p.add_argument("--stride", type=int, default=1,
                   help="index step between consecutive delay vectors")
    p.add_argument("-o", "--output", required=True, help="point file to write")
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("pd", help="persistence diagrams of a point file", **fmt)
    p.add_argument("input", help="point file (CSV x,y[,z] or JSON)")
    p.add_argument("--method", choices=sorted(_METHOD_ALIASES), default="dr",
                   help="filtration to build")
    p.add_argument("--maxdim", type=_number(_check_int, 0), default=1,
                   help="largest homology dimension to compute")
    p.add_argument("--threshold", type=float, default=None,
                   help="scale cap, rips only; omit for no cap")
    p.add_argument("--keep-zero-pairs", action="store_true",
                   help="keep zero-persistence pairs in output files")
    p.add_argument("-o", "--outdir", default=None,
                   help="output directory; None writes alongside the input")
    _add_common(p)
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("bottleneck",
                       help="bottleneck distance of two diagram files", **fmt)
    p.add_argument("diagram_a")
    p.add_argument("diagram_b")
    p.add_argument("--dim", type=_number(_check_int, 0), default=1,
                   help="homology dimension")
    p.add_argument("--diagonal-cost", choices=("half", "full"), default="half",
                   help="diagonal cost: (death-birth)/2 or death-birth")
    _add_common(p)
    p.set_defaults(func=cmd_bottleneck)

    p = sub.add_parser("hausdorff",
                       help="Hausdorff distance of two point files", **fmt)
    p.add_argument("cloud_a")
    p.add_argument("cloud_b")
    _add_common(p)
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("vectorize", help="feature vectors from diagram files")
    vsub = p.add_subparsers(dest="vectorizer", required=True)

    vp = vsub.add_parser("pi", help="persistence images on a shared grid", **fmt)
    vp.add_argument("diagrams", nargs="+", help="diagram files, one per sample")
    vp.add_argument("--resolution", type=_parse_resolution,
                    default="5x1,5x5,5x5",
                    help="RxC, or one block per dimension")
    vp.add_argument("--sigma", type=float, default=None,
                    help="Gaussian bandwidth; None uses half the pixel height")
    vp.add_argument("--maxdim", type=_number(_check_int, 0), default=2,
                    help="largest homology dimension to vectorize")
    vp.add_argument("-o", "--output", required=True, help="feature CSV to write")
    _add_common(vp)
    vp.set_defaults(func=cmd_vectorize_pi)

    vp = vsub.add_parser("stats",
                         help="48 persistence statistics per sample", **fmt)
    vp.add_argument("diagrams", nargs="+", help="diagram files, one per sample")
    vp.add_argument("--entropy-log", choices=("natural", "base2"),
                    default="natural", help="persistent-entropy logarithm")
    vp.add_argument("-o", "--output", required=True, help="feature CSV to write")
    _add_common(vp)
    vp.set_defaults(func=cmd_vectorize_stats)

    p = sub.add_parser("bench",
                       help="wall-time benchmark over a size grid", **fmt)
    p.add_argument("--shape", choices=SHAPE_KINDS, default="sphere",
                   help="sampled shape class")
    p.add_argument("--nu", type=_number(_check_real, 0), default=0.1,
                   help="noise magnitude")
    p.add_argument("--sizes", type=_parse_sizes, default="100:500:100",
                   help="start:stop[:step] or comma list")
    p.add_argument("--methods", type=_parse_methods, default="dr,rips,alpha",
                   help="comma list of methods to time")
    p.add_argument("--maxdim", type=_number(_check_int, 0), default=1,
                   help="largest homology dimension to compute")
    p.add_argument("--trials", type=_number(_check_int, 1), default=10,
                   help="trials per cell")
    p.add_argument("--timeout", type=_number(_check_real, 0, above=True),
                   default=7.0,
                   help="per-cell wall-time cap in seconds")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("-o", "--output", required=True, help="CSV file to write")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("demo-instability",
                       help="diagrams of the near-cocircular quad across x=0",
                       **fmt)
    p.add_argument("--x-values", type=_parse_xs,
                   default="-0.05,0.01,0.05,0.1,0.2",
                   help="comma list; use --x-values=-0.05,... for negatives")
    p.add_argument("--diagonal-cost", choices=("half", "full"), default="half",
                   help="diagonal cost convention for the reported distances")
    p.add_argument("--keep-zero-pairs", action="store_true",
                   help="keep zero-persistence pairs in output files")
    p.add_argument("-o", "--outdir", default="instability_demo",
                   help="directory for diagrams and report.csv")
    _add_common(p)
    p.set_defaults(func=cmd_demo_instability)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DelripsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (InputFormatError, OSError)):
            return 4
        return 2 if isinstance(exc, ValidationError) else 3


if __name__ == "__main__":
    sys.exit(main())
