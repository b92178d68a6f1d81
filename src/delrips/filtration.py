"""Vietoris-Rips, Delaunay-Rips, and Alpha filtrations on a point cloud.

All three builders share the distance (diameter) scale convention: a
simplex's scale is the diameter of the smallest witnessing configuration, so
the Rips/Delaunay-Rips scale of a simplex is its largest pairwise vertex
distance, and Alpha scales are twice the usual radius values. Outputs are
canonically sorted and satisfy the filtration closure and monotonicity
invariants by construction.

Delaunay-Rips and Alpha are the faces of ``delaunay(cloud)`` with two scale
rules, built and ordered by one function, ``_delaunay_filtration``, which
returns the filtration in its integer-array form (the ``dc.faces(k)`` arrays
and each row's position in filtration order) without building per-simplex
tuples, and warns when the triangulation's cospherical tie-break decided
the complex. Alpha makes its geometric decisions on the same exact
predicates as the triangulation: whether a face is attached is one exact
sign per coface, and each circumdiameter is a closed form certified
against its rounding error or else evaluated exactly, so Alpha accepts
every cloud that ``delaunay`` accepts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (Filtration, PointCloud, _sort_key, distances,
                   pairwise_distances)
from .delaunay import delaunay, facet_incidence, scale_exponent
from .errors import DuplicatePoints, ValidationError
from .predicates import circumdiameters, diametral_signs

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


def _delaunay_filtration(cloud: PointCloud, spec: FiltrationSpec,
                         rule) -> Filtration:
    """The Delaunay faces up to the cap at the scales of ``rule(dc, cap)``,
    which returns a float array of values and an int array giving each face
    (``dc.faces(0)``, ..., ``dc.faces(cap)`` in turn) its value's position.
    The faces are listed by dimension, then vertices, so a stable sort by
    scale gives the canonical order. The result is in the array form of
    ``Filtration``: ``dc.faces(k)`` and each row's position in that order.

    Warns when the triangulation's tie-break decided a cospherical case, and
    raises DuplicatePoints on coincident points, also for n = 2.
    """
    _check_delaunay_cap(spec, cloud.dim)
    cap = spec.max_hom_dim + 1
    n = len(cloud)
    if n <= 2:  # no triangulation: the vertices, and an edge at its length
        if n == 2 and cloud[0] == cloud[1]:
            raise DuplicatePoints("points 0 and 1 coincide")
        edge = [((0, 1), float(distances(*cloud.points)))] if n == 2 else []
        return Filtration(entries=tuple([((i,), 0.0) for i in range(n)] + edge),
                          max_dim=cap)
    dc = delaunay(cloud)
    if dc.degenerate:  # stacklevel 3 names the caller of build_*
        warnings.warn("cospherical points: the filtration may depend on the "
                      "Delaunay tie-break", stacklevel=3)
    values, index = rule(dc, cap)
    faces = [dc.faces(k) for k in range(cap + 1)]
    scales = values[index]
    order = np.argsort(scales, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    split = np.cumsum([len(f) for f in faces[:-1]])
    return Filtration._from_arrays(faces, np.split(position, split),
                                   scales[order], cap)


def _rips_scales(dc, cap):
    """Delaunay-Rips rule: each simplex at its longest edge.

    Lengths are computed for the Delaunay edges only, by the ``distances``
    that fills the Rips matrix, so scales match Rips bit for bit without an
    O(n^2) matrix. Each simplex finds its longest edge by binary search over
    the sorted edge keys a*n + b; vertices point at a trailing 0.0.
    """
    n = len(dc.cloud)
    edges = dc.faces(1)
    a, b = dc.cloud.as_array()[edges].transpose(1, 0, 2)
    lengths = np.append(distances(a, b), 0.0)
    edge_keys = edges[:, 0] * n + edges[:, 1]
    longest = [np.full(len(dc.faces(0)), len(edges))]
    for k in range(1, cap + 1):
        faces = dc.faces(k)
        pos = np.column_stack([
            np.searchsorted(edge_keys, faces[:, x] * n + faces[:, y])
            for x, y in combinations(range(k + 1), 2)])
        longest.append(pos[np.arange(len(faces)), lengths[pos].argmax(axis=1)])
    return lengths, np.concatenate(longest)


def build_delaunay_rips(cloud: PointCloud, spec: FiltrationSpec) -> Filtration:
    """Delaunay-Rips filtration: the faces of the Delaunay triangulation with
    Rips scales (largest pairwise vertex distance)."""
    return _delaunay_filtration(cloud, spec, _rips_scales)


def _alpha_scales(dc, cap):
    """Alpha rule: circumdiameters, clamped to the cofaces top-down.

    Top simplices take their circumdiameter. Below, a face's coface minimum
    comes from ``facet_incidence`` of the dimension above. A face is
    attached when the vertex opposite it in one of those cofaces lies
    strictly inside its smallest circumball (Edelsbrunner and Muecke,
    "Three-dimensional alpha shapes", 1994), one exact ``diametral_signs``
    test per incidence. An attached face takes the coface minimum, any other
    face its circumdiameter capped at that minimum (rounding can put it
    above). Edges take their ``distances`` length, triangles and tetrahedra
    their ``circumdiameters``. All of it runs on the points scaled by the
    exact power of two ``scale_exponent`` gives, and the values are scaled
    back, so extreme scales neither overflow nor underflow and ordinary ones
    give the same bits.
    """
    d = dc.cloud.dim
    e = scale_exponent(dc.cloud.points)
    pts = np.ldexp(dc.cloud.as_array(), -e)
    edges = pts[dc.faces(1)]
    value = [np.zeros(len(dc.faces(0))), distances(edges[:, 0], edges[:, 1])]
    value += [circumdiameters(pts[dc.faces(k)]) for k in range(2, d + 1)]
    for k in range(d - 1, 0, -1):
        _, facet_row, owner, opposite = facet_incidence(dc.faces(k + 1))
        low = np.full(len(value[k]), np.inf)
        np.minimum.at(low, facet_row, value[k + 1][owner])
        inside = diametral_signs(pts[dc.faces(k)[facet_row]], pts[opposite]) > 0
        attached = np.bincount(facet_row[inside], minlength=len(low)) > 0
        value[k] = np.where(attached, low, np.minimum(value[k], low))
    values = np.ldexp(np.concatenate(value[:cap + 1]), e)
    return values, np.arange(len(values))


def build_alpha(cloud: PointCloud, spec: FiltrationSpec) -> Filtration:
    """Alpha filtration on the Delaunay triangulation, in the shared diameter
    convention (scales are twice the usual alpha radii)."""
    return _delaunay_filtration(cloud, spec, _alpha_scales)


def build(cloud: PointCloud, spec: FiltrationSpec) -> Filtration:
    """Dispatch on spec.method."""
    if spec.method == "rips":
        return build_rips(cloud, spec)
    if spec.method == "delaunay_rips":
        return build_delaunay_rips(cloud, spec)
    return build_alpha(cloud, spec)
