"""Wall-time benchmark of the filtration-to-diagram pipeline.

Each (method, n, trial) cell runs in its own process so a hard timeout can
be enforced; the timer starts after the cloud is in memory and stops when
the diagram exists, so file and IPC costs stay out of the measurement.
Timed-out cells are recorded at the cap, matching how capped runtimes are
usually reported, and the memory of the child is limited so a runaway
enumeration dies in the child rather than the parent.
"""

from __future__ import annotations

import multiprocessing as mp
import statistics
from dataclasses import dataclass

from .core import _check_int, _check_real
from .datagen import ShapeClass, add_noise, sample_shape
from .filtration import FiltrationSpec, _check_delaunay_cap, build
from .persistence import compute_diagram

_MEM_LIMIT_BYTES = 3 << 30


@dataclass(frozen=True)
class BenchCell:
    method: str
    n: int
    trial: int
    seconds: float
    n_simplices: int | None
    status: str  # "ok" | "timeout" | "failed"
    error: str | None = None  # "ExceptionType: message" of a failed cell


def _worker(conn, spec, points):
    import time

    try:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (_MEM_LIMIT_BYTES,) * 2)
    except Exception:
        pass
    try:
        from .core import PointCloud

        cloud = PointCloud.from_points(points)
        t0 = time.perf_counter()
        filt = build(cloud, spec)
        compute_diagram(filt)
        elapsed = time.perf_counter() - t0
        conn.send((elapsed, len(filt)))
    except Exception as exc:  # MemoryError included
        conn.send(f"{type(exc).__name__}: {exc}")
    finally:
        conn.close()


def run_cell(method: str, points, max_hom_dim: int, trial: int,
             timeout: float) -> BenchCell:
    """One cell in a child process, capped at ``timeout`` seconds. Before
    the child starts, raises ValidationError unless the timeout is a
    positive finite number and the method's ``FiltrationSpec`` fits the
    points."""
    _check_real("timeout", timeout, 0, above=True)
    spec = FiltrationSpec(method=method, max_hom_dim=max_hom_dim)
    if method != "rips" and len(points):
        _check_delaunay_cap(spec, len(points[0]))
    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() \
        else mp.get_context("spawn")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_worker,
                       args=(child, spec, points))
    proc.start()
    child.close()
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join()
        parent.close()
        return BenchCell(method, len(points), trial, timeout, None, "timeout")
    result = parent.recv() if parent.poll() else None
    parent.close()
    if not isinstance(result, tuple):  # the worker's error message, or none
        return BenchCell(method, len(points), trial, timeout, None, "failed",
                         result or f"worker exited with code {proc.exitcode}")
    seconds, n_simplices = result
    if seconds > timeout:
        return BenchCell(method, len(points), trial, timeout, n_simplices,
                         "timeout")
    return BenchCell(method, len(points), trial, seconds, n_simplices, "ok")


def run_grid(shape: ShapeClass, nu: float, sizes, methods, max_hom_dim: int,
             trials: int, timeout: float, seed: int):
    """All cells plus per-(method, n) medians.

    The same cloud is used for every method within a (n, trial) pair.
    Timeouts and failures enter the median at the cap value. Before any
    cell starts, raises ValidationError unless the timeout is a positive
    finite number, the trials an int >= 1, the seed an int >= 0 and each
    method's ``FiltrationSpec`` fits every cloud.
    """
    _check_real("timeout", timeout, 0, above=True)
    _check_int("trials", trials, 1)
    _check_int("seed", seed, 0)
    clouds = {n: [add_noise(sample_shape(shape, n, seed + 1000 * trial + n),
                            nu, seed + 1000 * trial + n + 1)
                  for trial in range(trials)] for n in sizes}
    for method in methods:
        spec = FiltrationSpec(method=method, max_hom_dim=max_hom_dim)
        if method != "rips":
            for cloud in sum(clouds.values(), []):
                _check_delaunay_cap(spec, cloud.dim)
    cells = []
    medians = []
    for n in sizes:
        for method in methods:
            times = []
            for trial, cloud in enumerate(clouds[n]):
                cell = run_cell(method, cloud.points, max_hom_dim, trial,
                                timeout)
                cells.append(cell)
                times.append(cell.seconds)
            medians.append((method, n, statistics.median(times)))
    return cells, medians
