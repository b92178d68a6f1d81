"""Benchmark of the delrips pipeline: one workload per process.

    python3 perfbench/run.py --workload dr-sphere3d --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

It imports ``delrips`` from the ``src/`` beside ``perfbench/`` and from
nowhere else, and exits with an error if there is none. The load is a
closed loop: one caller in one process runs one operation after another,
with every numeric library pinned to one thread. ``--workload all`` runs
each workload in its own fresh process, so peak RSS belongs to one
workload, and prints every metric by name and unit.

On a shared host (a 2-vCPU Xeon VM, for one) the machine's speed drifts by
15-30% over minutes, the same for every program on it, so each op is bracketed by a fixed reference
computation that shares no code with ``delrips``; ``op_rel.p50``, the median
of op seconds over the bracketing reference seconds, is the op's cost with
that drift divided out. ``op_s.p50``, the plain median wall time, is printed
and recorded beside it.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates an untraced and a traced operation on the same
cloud and reports per-layer self times and exact counts; the spans are kept
in memory and written to ``perfbench/out/`` when the run ends. The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Pinned before numpy is first imported, which reads them.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from reference import differences, load_reference  # noqa: E402
from tracer import NoSpans, Spans, per_op_times  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("dr-sphere3d", "stability-sphere")

# Set-up (importing the library in a fresh interpreter, making the inputs and
# a warm-up op) is repeated and its median reported, so that one slow
# repetition does not set ``setup_s``.
SETUP_REPEATS = 5

_IMPORT_PROBE = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import delrips
print(time.perf_counter() - t0)
"""

# Inputs of the reference computation: fixed, independent of the seed, and
# small, so that it adds nothing to the workload's peak RSS.
_REF_X = [((i * 7919) % 1009) / 1009.0 for i in range(200)]
_REF_P = np.array([[((i * k * 104729) % 997) / 997.0 for k in (1, 2, 3)]
                   for i in range(250)])

# Span name -> per-layer metric holding its median self time per op. The
# end-to-end metric each layer should move, and where:
#   delaunay.delaunay.s: op_rel.p50 on dr-sphere3d and stability-sphere;
#   core.pairwise_distances.s: op_rel.p50 and peak_rss_mb on dr-sphere3d;
#   filtration.build.self_s, persistence.*, vectorize.features.s: op_rel.p50
#     on dr-sphere3d;
#   metrics.bottleneck.s.h*: op_rel.p50 and peak_rss_mb on stability-sphere;
#   geometry.*: op_rel.p50 on stability-sphere.
# Probes of calls the build functions make internally run outside the op; a
# layer a workload bypasses reports 0.
SPAN_METRICS = {
    "op": "op.self_s",
    "probe.delaunay": "delaunay.delaunay.s",
    "probe.pairwise_distances": "core.pairwise_distances.s",
    "filtration.build": "filtration.build.s",
    "persistence.boundary_matrix": "persistence.boundary_matrix.s",
    "persistence.reduce_twist": "persistence.reduce_twist.s",
    "persistence.extract_pairs": "persistence.extract_pairs.s",
    "metrics.bottleneck.h0": "metrics.bottleneck.s.h0",
    "metrics.bottleneck.h1": "metrics.bottleneck.s.h1",
    "metrics.bottleneck.h2": "metrics.bottleneck.s.h2",
    "geometry.same_triangulation": "geometry.same_triangulation.s",
    "geometry.hausdorff_distance": "geometry.hausdorff_distance.s",
    "vectorize.features": "vectorize.features.s",
}

# Exact count -> per-layer metric, taken from the first traced op.
COUNT_METRICS = {
    "top_simplices": "delaunay.top_simplices",
    "degenerate": "delaunay.degenerate",
    "simplices.d0": "filtration.simplices.d0",
    "simplices.d1": "filtration.simplices.d1",
    "simplices.d2": "filtration.simplices.d2",
    "simplices.d3": "filtration.simplices.d3",
    "boundary.nnz": "persistence.boundary.nnz",
    "reduced.nnz": "persistence.reduced.nnz",
    "pairs.h0": "persistence.pairs.h0",
    "pairs.h1": "persistence.pairs.h1",
    "pairs.h2": "persistence.pairs.h2",
    "bottleneck.k.h0": "metrics.bottleneck.k.h0",
    "bottleneck.k.h1": "metrics.bottleneck.k.h1",
    "bottleneck.k.h2": "metrics.bottleneck.k.h2",
}


def load_library():
    """Import delrips from this checkout's ``src/``, then the workloads."""
    if not (SRC / "delrips" / "__init__.py").is_file():
        sys.exit(f"run.py: no delrips package under {SRC}; run from the "
                 "root of a delrips checkout")
    sys.path.insert(0, str(SRC))
    import delrips
    if Path(delrips.__file__).resolve().parent != SRC / "delrips":
        sys.exit(f"run.py: imported delrips from {delrips.__file__}, "
                 f"not from {SRC}")
    import workloads
    return workloads


def reference_seconds() -> float:
    """Seconds of a fixed computation of about 0.1 s, in the mix of the
    library's own work: Python lists of floats, a sort, a dict count and a
    numpy distance matrix. It never changes, so its time tracks only the
    machine's speed."""
    t0 = time.perf_counter()
    hist = {}
    for _ in range(6):
        rows = [[abs(a - b) for b in _REF_X] for a in _REF_X]
        for v in sorted(v for row in rows for v in row[::3]):
            hist[int(v * 64)] = hist.get(int(v * 64), 0) + 1
        np.sqrt(((_REF_P[:, None, :] - _REF_P[None, :, :]) ** 2).sum(-1))
    return time.perf_counter() - t0


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "load": "closed loop, 1 caller, 1 process"}


class DeterminismError(Exception):
    """An op's digest or exact counts differ from the reference."""


class Runner:
    """Runs, checks and records the operations of one workload run."""

    def __init__(self, wl, seed, reference):
        self.wl = wl
        self.seed = seed
        self.expected = dict(reference)
        self.ops = []

    def run_op(self, tr, j, inp, traced) -> dict:
        """Time one op on input ``j`` and check it; never raises. Returns
        the op's record."""
        op_id = len(self.ops)
        rec = {"op": op_id, "cloud": f"{self.seed}.{j}", "traced": traced}
        tr.op_id = op_id
        t0 = time.perf_counter()
        try:
            with tr.span("op"):
                out = self.wl.op(tr, inp)
            rec["seconds"] = time.perf_counter() - t0
            rec["digest"], rec["counts"] = self.wl.check(inp, out)
            del out
            if traced:
                rec["counts"].update(self.wl.probe(tr, inp))
            self.compare(rec)
        except Exception as exc:  # one failed op must not end the workload
            rec.setdefault("seconds", time.perf_counter() - t0)
            rec["error"] = f"{type(exc).__name__}: {exc}"
        tr.op_id = None
        rec["ok"] = "error" not in rec
        self.ops.append(rec)
        return rec

    def compare(self, rec):
        """Digest and exact counts must match the reference for the cloud:
        the committed one, else the first op on that cloud in this run."""
        got = {"digest": rec["digest"], "counts": rec["counts"]}
        want = self.expected.setdefault(rec["cloud"], got)
        diff = differences(want, got)
        if diff:
            raise DeterminismError("; ".join(diff))
        want["counts"] = {**got["counts"], **want["counts"]}


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import delrips (and numpy)."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def set_up(wl, seed):
    """Import the library afresh, make the inputs and run a checked warm-up
    op, ``SETUP_REPEATS`` times; returns the inputs and the median set-up
    seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        t0 = time.perf_counter()
        inputs = wl.make_inputs(seed)
        warm = wl.warmup_input(seed)
        wl.check(warm, wl.op(NoSpans(), warm))
        times.append(import_s + time.perf_counter() - t0)
    return inputs, statistics.median(times)


def op_seconds(ops, key="seconds"):
    """``key`` of the successful ops, or of every attempted op if none
    succeeded, so a failing run still reports what it measured."""
    ok = [r[key] for r in ops if r["ok"]]
    return ok or [r[key] for r in ops]


def measure(wl, runner, inputs, seconds, tracer):
    """Closed loop over the inputs for about ``seconds``: an op starts only
    if it is expected to end less than half an op past the deadline. In a
    traced run each untraced op is followed by a traced op on its cloud.
    The reference computation runs before the first op and after each
    iteration; an untraced op's ``rel`` is its seconds over the mean of the
    two reference times around it."""
    plain = NoSpans()
    t0 = time.perf_counter()
    i = 0
    last = 0.0
    ref = reference_seconds()
    while i == 0 or time.perf_counter() - t0 + last / 2 < seconds:
        j = i % len(inputs)
        start = time.perf_counter()
        rec = runner.run_op(plain, j, inputs[j], traced=False)
        if tracer is not None:
            runner.run_op(tracer, j, inputs[j], traced=True)
        last = time.perf_counter() - start
        after = reference_seconds()
        rec["ref_s"] = (ref + after) / 2
        rec["rel"] = rec["seconds"] / rec["ref_s"]
        ref = after
        i += 1


def end_to_end(ops, setup_s):
    """Median op cost against the reference computation, peak RSS of this
    process and the set-up time."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "op_rel.p50": {"value": statistics.median(op_seconds(ops, "rel")),
                       "unit": "ratio"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def summary(wl, plain_ops, ops):
    """Printed beside the metrics, not gated: the median wall seconds per
    op (it carries the machine's drift), the op count, points of the stated
    n per op second (n / op_s.p50) and the failed share (0 when all is
    well)."""
    seconds = op_seconds(plain_ops)
    failed = sum(1 for r in ops if not r["ok"])
    return {
        "op_s.p50": {"value": statistics.median(seconds), "unit": "s"},
        "ref_s.p50": {"value": statistics.median(op_seconds(plain_ops, "ref_s")),
                      "unit": "s"},
        "op_s.n": {"value": len(seconds), "unit": "count"},
        "points_per_s": {"value": wl.n / statistics.median(seconds),
                         "unit": "1/s"},
        "failed_frac": {"value": failed / len(ops), "unit": "frac"},
    }


def per_layer(plain_ops, traced_ops, records):
    """Median self seconds per layer, the traced op time and the tracing
    overhead, and the exact counts of the first traced op."""
    by_op = per_op_times(records)
    samples = {m: [] for m in SPAN_METRICS.values()}
    samples["filtration.build.self_s"] = []
    for rec in traced_ops:
        if not rec["ok"]:
            continue
        spans = by_op.get(rec["op"], {})
        for name, metric in SPAN_METRICS.items():
            samples[metric].append(spans.get(name, (0.0, 0.0))[1])
        probes = sum(spans.get(p, (0.0, 0.0))[0]
                     for p in ("probe.delaunay", "probe.pairwise_distances"))
        build = spans.get("filtration.build", (0.0, 0.0))[0]
        samples["filtration.build.self_s"].append(build - probes)
    layers = {m: statistics.median(v) if v else 0.0
              for m, v in samples.items()}
    traced_p50 = statistics.median(op_seconds(traced_ops))
    plain_p50 = statistics.median(op_seconds(plain_ops))
    attributed = sum(v for m, v in layers.items() if m != "filtration.build.s")
    metrics = {m: {"value": v, "unit": "s"} for m, v in layers.items()}
    metrics["op.traced_s.p50"] = {"value": traced_p50, "unit": "s"}
    metrics["trace.overhead_frac"] = {
        "value": (traced_p50 - plain_p50) / plain_p50, "unit": "frac"}
    metrics["trace.unattributed_frac"] = {
        "value": (traced_p50 - attributed) / traced_p50, "unit": "frac"}

    first = next((r for r in traced_ops if r["ok"]), {"counts": {}})
    counts = first["counts"]
    for key, metric in COUNT_METRICS.items():
        metrics[metric] = {"value": counts.get(key, 0), "unit": "count"}
    boundary = counts.get("boundary.nnz", 0)
    pairs = sum(counts.get(f"pairs.h{p}", 0) for p in range(4))
    metrics["persistence.fill_ratio"] = {
        "value": counts.get("reduced.nnz", 0) / boundary if boundary else 0.0,
        "unit": "ratio"}
    metrics["persistence.zero_pairs_frac"] = {
        "value": counts.get("zero_pairs", 0) / pairs if pairs else 0.0,
        "unit": "frac"}
    return metrics


def run_workload(args) -> int:
    workloads = load_library()
    wl = workloads.WORKLOADS[args.workload]
    inputs, setup_s = set_up(wl, args.seed)
    runner = Runner(wl, args.seed, load_reference().get(wl.name, {}))
    tracer = Spans() if args.trace else None
    measure(wl, runner, inputs, args.seconds, tracer)

    plain_ops = [r for r in runner.ops if not r["traced"]]
    traced_ops = [r for r in runner.ops if r["traced"]]
    failures = [{"op": r["op"], "cloud": r["cloud"], "error": r["error"]}
                for r in runner.ops if not r["ok"]]
    if args.trace:
        metrics = per_layer(plain_ops, traced_ops, tracer.records)
    else:
        metrics = end_to_end(plain_ops, setup_s)
    extra = summary(wl, plain_ops, runner.ops)

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "n": wl.n, "environment": environment(),
              "summary": extra, "metrics": metrics, "failures": failures,
              "ops": runner.ops,
              "spans": tracer.as_dicts() if tracer is not None else []}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {wl.name} seed={args.seed} n={wl.n} -> {path.relative_to(HERE.parent)}")
    print(f"# environment {json.dumps(record['environment'])}")
    for f in failures:
        print(f"# FAILED op {f['op']} cloud {f['cloud']}: {f['error']}")
    for name, m in {**metrics, **extra}.items():
        print(f"{wl.name:<17} {name:<34} {m['value']:<22.10g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": len(runner.ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints their lines, then one JSON
    object keyed by workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run.py: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
