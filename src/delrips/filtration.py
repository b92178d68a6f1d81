"""Vietoris-Rips, Delaunay-Rips, and Alpha filtrations on a point cloud.

All three builders share the distance (diameter) scale convention: a
simplex's scale is the diameter of the smallest witnessing configuration, so
the Rips/Delaunay-Rips scale of a simplex is its largest pairwise vertex
distance, and Alpha scales are twice the usual radius values. Outputs are
canonically sorted and satisfy the filtration closure and monotonicity
invariants by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (Filtration, PointCloud, _sort_key, distances,
                   pairwise_distances)
from .delaunay import delaunay
from .errors import ValidationError
from .geometry import circumsphere

_METHODS = ("rips", "delaunay_rips", "alpha")


@dataclass(frozen=True)
class FiltrationSpec:
    """Which filtration to build and how far.

    ``max_hom_dim`` is the largest homology dimension the output should
    support; simplices up to dimension ``max_hom_dim + 1`` are built.
    ``threshold`` caps the scale (Rips only); None means no cap.
    """

    method: str = "delaunay_rips"
    max_hom_dim: int = 1
    threshold: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.max_hom_dim < 0:
            raise ValidationError("max_hom_dim must be >= 0")
        if self.threshold is not None:
            if self.method != "rips":
                raise ValidationError("threshold applies to the rips method only")
            if not self.threshold >= 0:
                raise ValidationError("threshold must be >= 0")


def _check_delaunay_cap(spec: FiltrationSpec, ambient_dim: int):
    if spec.max_hom_dim + 1 > ambient_dim:
        raise ValidationError(
            f"max_hom_dim {spec.max_hom_dim} needs simplices of dimension "
            f"{spec.max_hom_dim + 1}, but a Delaunay complex in R^{ambient_dim} "
            f"has none above {ambient_dim}")


def build_rips(cloud: PointCloud, spec: FiltrationSpec) -> Filtration:
    """Vietoris-Rips filtration: every vertex subset of size up to
    max_hom_dim + 2 whose diameter is within the threshold, at scale equal to
    its largest pairwise distance."""
    if len(cloud) == 0:
        raise ValidationError("point cloud is empty")
    n = len(cloud)
    cap = spec.max_hom_dim + 1
    thr = math.inf if spec.threshold is None else spec.threshold
    dist = pairwise_distances(cloud)
    entries = [((i,), 0.0) for i in range(n)]
    edges = []
    for i in range(n):
        row = dist[i]
        for j in range(i + 1, n):
            if row[j] <= thr:
                edges.append(((i, j), row[j]))
    entries.extend(edges)
    for k in range(3, cap + 2):
        for verts in combinations(range(n), k):
            scale = 0.0
            ok = True
            for a, b in combinations(verts, 2):
                d = dist[a][b]
                if d > thr:
                    ok = False
                    break
                if d > scale:
                    scale = d
            if ok:
                entries.append((verts, scale))
    entries.sort(key=_sort_key)
    return Filtration(entries=tuple(entries), max_dim=cap)


def _tiny_cloud_entries(cloud: PointCloud):
    """Degenerate 1- and 2-point complexes shared by the Delaunay builders."""
    if len(cloud) == 1:
        return [((0,), 0.0)]
    d = float(distances(cloud[0], cloud[1]))
    return [((0,), 0.0), ((1,), 0.0), ((0, 1), d)]


def build_delaunay_rips(cloud: PointCloud, spec: FiltrationSpec) -> Filtration:
    """Delaunay-Rips filtration: the faces of the Delaunay triangulation with
    Rips scales (largest pairwise vertex distance).

    The faces come per dimension from ``DelaunayComplex.faces``, sorted.
    Lengths are computed for the Delaunay edges only, by the ``distances``
    that fills the Rips matrix, so scales match Rips bit for bit without an
    O(n^2) matrix. Each simplex finds its longest edge by binary search over
    the sorted edge keys a*n + b. The faces are listed by dimension, then
    vertices, so a stable sort by scale gives the canonical order. The
    entries share one int object per vertex id and one float object per
    edge length.
    """
    _check_delaunay_cap(spec, cloud.dim)
    cap = spec.max_hom_dim + 1
    n = len(cloud)
    if n <= 2:
        return Filtration(entries=tuple(_tiny_cloud_entries(cloud)), max_dim=cap)
    dc = delaunay(cloud)
    edges = dc.faces(1)
    a, b = cloud.as_array()[edges].transpose(1, 0, 2)
    lengths = np.append(distances(a, b), 0.0)  # the last one for vertices
    shared_lengths = np.array(lengths.tolist(), dtype=object)
    ids = np.empty(n, dtype=object)
    ids[:] = range(n)
    edge_keys = edges[:, 0] * n + edges[:, 1]
    verts, longest = [], []
    for k in range(cap + 1):
        faces = dc.faces(k)
        verts.extend(map(tuple, ids[faces].tolist()))
        if k == 0:
            longest.append(np.full(len(faces), len(edges)))
            continue
        pos = np.column_stack([
            np.searchsorted(edge_keys, faces[:, x] * n + faces[:, y])
            for x, y in combinations(range(k + 1), 2)])
        longest.append(pos[np.arange(len(faces)), lengths[pos].argmax(axis=1)])
    longest = np.concatenate(longest)
    order = np.argsort(lengths[longest], kind="stable")
    entries = tuple(zip([verts[i] for i in order.tolist()],
                        shared_lengths[longest[order]].tolist()))
    return Filtration(entries=entries, max_dim=cap)


def _is_gabriel(pts: np.ndarray, verts, center) -> bool:
    """Is the smallest circumball of the simplex empty of other points?

    The squared radius is taken from the simplex's own vertices with the same
    arithmetic as the point distances, so a point exactly on the sphere (the
    tie case) is reliably classified as outside.
    """
    diff = pts - center
    sq = np.sum(diff * diff, axis=1)
    sq_r = float(np.max(sq[list(verts)]))
    inside = sq < sq_r
    inside[list(verts)] = False
    return not bool(inside.any())


def build_alpha(cloud: PointCloud, spec: FiltrationSpec) -> Filtration:
    """Alpha filtration on the Delaunay triangulation, in the shared diameter
    convention (scales are twice the usual alpha radii).

    A simplex that passes the Gabriel test (no other point strictly inside
    its smallest circumball) takes its circumdiameter, capped at the minimum
    over its cofaces (rounding can put it above); otherwise its value is that
    minimum. Top simplices always take their circumdiameter.
    """
    _check_delaunay_cap(spec, cloud.dim)
    cap = spec.max_hom_dim + 1
    if len(cloud) <= 2:
        return Filtration(entries=tuple(_tiny_cloud_entries(cloud)), max_dim=cap)
    dc = delaunay(cloud)
    if dc.degenerate:
        warnings.warn("cospherical points: alpha values may depend on the "
                      "Delaunay tie-break", stacklevel=2)
    pts = cloud.as_array()
    d = cloud.dim

    by_dim = {k: dc.simplices_of_dim(k) for k in range(d + 1)}
    cofaces = {}
    for k in range(1, d + 1):
        for verts in by_dim[k]:
            for i in range(len(verts)):
                face = verts[:i] + verts[i + 1:]
                cofaces.setdefault(face, []).append(verts)

    radius = {}
    for k in range(d, 0, -1):
        for verts in by_dim[k]:
            center, r = circumsphere([pts[v] for v in verts])
            if k < d:
                low = min(radius[cf] for cf in cofaces[verts])
                gabriel = _is_gabriel(pts, verts, np.asarray(center))
                r = min(r, low) if gabriel else low
            radius[verts] = r

    entries = [((i,), 0.0) for i in range(len(cloud))]
    for verts, r in radius.items():
        if len(verts) - 1 <= cap:
            entries.append((verts, 2.0 * r))
    entries.sort(key=_sort_key)
    return Filtration(entries=tuple(entries), max_dim=cap)


def build(cloud: PointCloud, spec: FiltrationSpec) -> Filtration:
    """Dispatch on spec.method."""
    if spec.method == "rips":
        return build_rips(cloud, spec)
    if spec.method == "delaunay_rips":
        return build_delaunay_rips(cloud, spec)
    return build_alpha(cloud, spec)
