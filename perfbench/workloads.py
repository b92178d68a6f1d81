"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Each workload hands ``delrips`` only generated points. Its operation calls
the library's public functions directly, wrapping each call in a span of the
tracer it is given, so the untraced and traced runs execute the same code.
``check`` verifies one operation's output and returns its digest and exact
counts; ``probe`` times, outside the operation, the calls that
``build_delaunay_rips`` makes internally, so that the build's own share can
be separated.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from delrips import (FiltrationSpec, ShapeClass, add_noise, bottleneck,
                     boundary_matrix, build_delaunay_rips, delaunay,
                     epsilon_perturb, extract_pairs, hausdorff_distance,
                     persistence_image, reduce_twist, same_triangulation,
                     sample_shape, stats_feature_vector)
from delrips.core import pairwise_distances
from delrips.geometry import min_pairwise_distance
from delrips.vectorize import fit_pi_grid

# Size of the cloud the warm-up operation runs on during set-up.
WARMUP_POINTS = 40


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Stage:
    """One filtration through boundary matrix, reduction and pair extraction."""

    filt: object
    mat: object
    red: object
    diag: object


def diagram(tr, build, cloud, spec) -> Stage:
    """``compute_diagram`` spelled out, so each step gets its own span."""
    with tr.span("filtration.build"):
        filt = build(cloud, spec)
    with tr.span("persistence.boundary_matrix"):
        mat = boundary_matrix(filt)
    with tr.span("persistence.reduce_twist"):
        red = reduce_twist(mat)
    with tr.span("persistence.extract_pairs"):
        diag = extract_pairs(red, filt)
    return Stage(filt, mat, red, diag)


def stage_counts(stage: Stage, counts: dict) -> dict:
    """Add the exact work counts of one stage to ``counts``."""
    for verts, _ in stage.filt.entries:
        _add(counts, f"simplices.d{len(verts) - 1}", 1)
    _add(counts, "boundary.nnz", sum(len(c) for c in stage.mat.columns))
    _add(counts, "reduced.nnz", sum(len(c) for c in stage.red.columns))
    for dim, birth, death in stage.diag.entries:
        _add(counts, f"pairs.h{dim}", 1)
        _add(counts, "zero_pairs", int(birth == death))
    return counts


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def digest(diagrams, extra=()) -> str:
    """SHA-256 of the diagrams' canonical entries and any extra floats,
    with every float written exactly (hex)."""
    h = hashlib.sha256()
    for diag in diagrams:
        for dim, birth, death in diag.entries:
            h.update(f"{dim} {birth.hex()} {death.hex()}\n".encode())
        h.update(b"--\n")
    for value in extra:
        h.update(f"{float(value).hex()}\n".encode())
    return h.hexdigest()


def check_euler(stage: Stage):
    """One essential H0 class, and the complex's Euler characteristic equals
    the alternating count of essential classes (Delaunay complexes only)."""
    essential = {}
    for dim, _, death in stage.diag.entries:
        if math.isinf(death):
            essential[dim] = essential.get(dim, 0) + 1
    if essential.get(0, 0) != 1:
        raise CheckFailed(f"{essential.get(0, 0)} essential H0 classes, want 1")
    chi = sum((-1) ** (len(v) - 1) for v, _ in stage.filt.entries)
    alternating = sum((-1) ** d * k for d, k in essential.items())
    if chi != alternating:
        raise CheckFailed(f"Euler characteristic {chi} != alternating count "
                          f"of essential classes {alternating}")


def noisy_shape(kind, n, seed):
    """The paper's noisy shapes: uniform on the shape, then noise nu = 0.1."""
    return add_noise(sample_shape(ShapeClass(kind=kind), n, seed), 0.1, seed + 1)


def probe_clouds(tr, clouds) -> dict:
    """Time, outside the op, the calls ``build_delaunay_rips`` makes
    internally: ``delaunay`` and ``pairwise_distances``."""
    counts = {}
    for cloud in clouds:
        with tr.span("probe.delaunay"):
            dc = delaunay(cloud)
        _add(counts, "top_simplices", len(dc.top_simplices))
        _add(counts, "degenerate", int(dc.degenerate))
        with tr.span("probe.pairwise_distances"):
            pairwise_distances(cloud)
    return counts


class Workload:
    """A named input family of ``n`` points and the op run on it."""

    name = ""
    n = 0
    # Each run cycles through this many clouds made from its seed. A fixed
    # list keeps a run's median repeatable; more than one cloud keeps a single
    # cloud's quirks from setting it.
    clouds = 2

    def make_input(self, seed: int, n: int):
        raise NotImplementedError

    def make_inputs(self, seed: int) -> list:
        return [self.make_input(seed * 1000 + 10 * j, self.n)
                for j in range(self.clouds)]

    def warmup_input(self, seed: int):
        return self.make_input(seed * 1000 + 999, WARMUP_POINTS)

    def op(self, tr, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple:
        """``(digest, counts)`` of a correct output; raises CheckFailed."""
        raise NotImplementedError

    def probe(self, tr, inp) -> dict:
        raise NotImplementedError


class DrSphere(Workload):
    """Delaunay-Rips on a noisy sphere, then features for a classifier."""

    name = "dr-sphere3d"
    n = 2000
    spec = FiltrationSpec(method="delaunay_rips", max_hom_dim=2)

    def make_input(self, seed, n):
        return noisy_shape("sphere", n, seed)

    def op(self, tr, cloud):
        stage = diagram(tr, build_delaunay_rips, cloud, self.spec)
        kept = stage.diag.drop_zero()
        with tr.span("vectorize.features"):
            per_dim = [kept.pairs(p) for p in range(3)]
            stats = stats_feature_vector(*per_dim)
            images = [persistence_image(pairs,
                                        fit_pi_grid([pairs], (20, 20)))
                      for pairs in per_dim]
        return stage, stats, images

    def check(self, cloud, out):
        stage, stats, images = out
        check_euler(stage)
        if stats.shape != (48,) or not np.all(np.isfinite(stats)):
            raise CheckFailed("statistics vector is not 48 finite values")
        for img in images:
            if img.shape != (400,) or not np.all(img >= 0.0):
                raise CheckFailed("persistence image is not 400 values >= 0")
        return digest([stage.diag]), stage_counts(stage, {})

    def probe(self, tr, cloud):
        return probe_clouds(tr, [cloud])


def _dist_inf(a, b):
    if a[1] == b[1]:
        return abs(a[0] - b[0])
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def check_matching(xs, ys, value, m):
    """The witness is a bijection up to the diagonal whose cost is the
    returned bottleneck value ("half" diagonal convention)."""
    if m.cost != value:
        raise CheckFailed(f"Matching.cost {m.cost} != returned value {value}")
    used_x = sorted([i for i, _ in m.matched] + list(m.to_diagonal_x))
    used_y = sorted([j for _, j in m.matched] + list(m.to_diagonal_y))
    if used_x != list(range(len(xs))) or used_y != list(range(len(ys))):
        raise CheckFailed("witness is not a bijection up to the diagonal")
    costs = [_dist_inf(xs[i], ys[j]) for i, j in m.matched]
    costs += [(xs[i][1] - xs[i][0]) / 2.0 for i in m.to_diagonal_x]
    costs += [(ys[j][1] - ys[j][0]) / 2.0 for j in m.to_diagonal_y]
    if max(costs, default=0.0) != value:
        raise CheckFailed(f"witness cost {max(costs, default=0.0)} != "
                          f"bottleneck value {value}")


class StabilitySphere(Workload):
    """The paper's stability check on a noisy sphere and a perturbed copy."""

    name = "stability-sphere"
    n = 300
    # The op's cost varies by about 15% from cloud to cloud (the H0
    # bottleneck's search depends on the diagram), so a run takes its median
    # over a new cloud for every op: about 20 ops fit in a run.
    clouds = 24
    spec = FiltrationSpec(method="delaunay_rips", max_hom_dim=2)

    def make_input(self, seed, n):
        cloud = noisy_shape("sphere", n, seed)
        eps = 0.25 * min_pairwise_distance(cloud)
        return epsilon_perturb(cloud, eps, seed + 2)

    def op(self, tr, pair):
        with tr.span("geometry.hausdorff_distance"):
            hausdorff = hausdorff_distance(pair.source, pair.target)
        with tr.span("geometry.same_triangulation"):
            same = same_triangulation(pair)
        stages = [diagram(tr, build_delaunay_rips, cloud, self.spec)
                  for cloud in (pair.source, pair.target)]
        kept = [s.diag.drop_zero() for s in stages]
        matchings = []
        for p in range(3):
            xs, ys = kept[0].pairs(p), kept[1].pairs(p)
            with tr.span(f"metrics.bottleneck.h{p}"):
                value, m = bottleneck(xs, ys, diagonal="half")
            matchings.append((xs, ys, value, m))
        return hausdorff, same, stages, matchings

    def check(self, pair, out):
        hausdorff, same, stages, matchings = out
        counts = {}
        for stage in stages:
            check_euler(stage)
            stage_counts(stage, counts)
        for p, (xs, ys, value, m) in enumerate(matchings):
            check_matching(xs, ys, value, m)
            if same and value > 2.0 * hausdorff + 1e-12:
                raise CheckFailed(f"H{p} bottleneck {value} > 2 * Hausdorff "
                                  f"{hausdorff} with an unchanged triangulation")
            counts[f"bottleneck.k.h{p}"] = sum(1 for _, d in xs
                                               if math.isfinite(d))
        counts["same_triangulation"] = int(same)
        values = [hausdorff] + [v for _, _, v, _ in matchings]
        return digest([s.diag for s in stages], values), counts

    def probe(self, tr, pair):
        return probe_clouds(tr, [pair.source, pair.target])


WORKLOADS = {w.name: w for w in (DrSphere(), StabilitySphere())}
