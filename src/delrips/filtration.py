"""Vietoris-Rips, Delaunay-Rips, and Alpha filtrations on a point cloud.

All three builders share the distance (diameter) scale convention: a
simplex's scale is the diameter of the smallest witnessing configuration, so
the Rips and Delaunay-Rips scale of a simplex is its largest pairwise vertex
distance (the rule at ``_rips_scales``), and Alpha scales are twice the
usual radius values. Each builder lists its faces by dimension, then
vertices, and returns through one ordering step, ``Filtration._from_arrays``,
which makes the integer-array form without per-simplex tuples; outputs
satisfy the closure and monotonicity invariants by construction.

Rips grows each dimension from the one below in numpy, on the n x n array of
``distance_blocks``. Delaunay-Rips and Alpha are the faces of
``delaunay(cloud)`` with two scale rules, built by ``_delaunay_filtration``,
which warns when the triangulation's cospherical tie-break decided the
complex. Alpha makes its geometric decisions on the same exact predicates as
the triangulation: whether a face is attached is one exact sign per coface,
and each circumdiameter is a closed form certified against its rounding
error or else evaluated exactly, so Alpha accepts every cloud that
``delaunay`` accepts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .core import (Filtration, PointCloud, _blocks, _check_int,
                   distance_blocks, distances)
from .delaunay import delaunay
from .errors import DuplicatePoints, ValidationError
from .predicates import circumdiameters, diametral_signs

_METHODS = ("rips", "delaunay_rips", "alpha")


@dataclass(frozen=True)
class FiltrationSpec:
    """Which filtration to build and how far.

    ``max_hom_dim``, an int >= 0, is the largest homology dimension the output
    should support; simplices up to dimension ``max_hom_dim + 1`` are built.
    ``threshold``, a real >= 0, caps the scale (Rips only); None means no cap.
    """

    method: str = "delaunay_rips"
    max_hom_dim: int = 1
    threshold: float | None = None

    def __post_init__(self):
        dim, thr = self.max_hom_dim, self.threshold
        if self.method not in _METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        _check_int("max_hom_dim", dim, 0)
        if thr is not None:
            if self.method != "rips":
                raise ValidationError("threshold applies to the rips method only")
            if not (isinstance(thr, Real) and thr >= 0):
                raise ValidationError(f"threshold {thr!r} is not a number >= 0")


def _check_delaunay_cap(spec: FiltrationSpec, ambient_dim: int):
    if spec.max_hom_dim + 1 > ambient_dim:
        raise ValidationError(
            f"max_hom_dim {spec.max_hom_dim} needs simplices of dimension "
            f"{spec.max_hom_dim + 1}, but a Delaunay complex in R^{ambient_dim} "
            f"has none above {ambient_dim}")


def build_rips(cloud: PointCloud, spec: FiltrationSpec) -> Filtration:
    """Vietoris-Rips filtration: every vertex subset of size up to
    max_hom_dim + 2 whose edges are all within the threshold, at the Rips
    scale of ``_rips_scales``."""
    n = len(cloud)
    if n == 0:
        raise ValidationError("point cloud is empty")
    dist = np.empty((n, n))
    for rows, block in distance_blocks(cloud.points, cloud.points):
        dist[rows] = block
    thr = math.inf if spec.threshold is None else spec.threshold
    faces, scales = _rips_faces(dist, dist <= thr, spec.max_hom_dim + 1)
    return Filtration._from_arrays(faces, scales, spec.max_hom_dim + 1)


def _rips_faces(dist: np.ndarray, kept: np.ndarray, cap: int) -> tuple:
    """The Rips faces up to dimension ``cap``, each dimension's rows in
    lexicographic order, and their scales: vertices at 0.0, and each
    k-simplex a (k-1)-simplex followed by a vertex v above its last one with
    ``kept[u, v]`` for each of its vertices u, at the maximum of the
    (k-1)-simplex's scale and the lengths ``dist[u, v]``, found in
    ``_blocks`` chunks of rows by one (rows, n) mask each."""
    n = len(dist)
    faces, scales = [np.arange(n)[:, None]], [np.zeros(n)]
    for k in range(1, cap + 1):
        rows, grown = faces[-1], [(np.empty((0, k + 1), np.int64), np.empty(0))]
        for chunk in _blocks(np.full(len(rows), n)):
            part = rows[chunk]
            above = part[:, -1:] < np.arange(n)
            r, v = np.nonzero(np.logical_and.reduce(kept[part.T]) & above)
            grown.append((np.column_stack([part[r], v]), np.maximum(
                scales[-1][chunk][r], dist[part[r].T, v].max(axis=0))))
        faces.append(np.concatenate([f for f, _ in grown]))
        scales.append(np.concatenate([s for _, s in grown]))
    return faces, np.concatenate(scales)


def _delaunay_filtration(cloud: PointCloud, spec: FiltrationSpec,
                         rule) -> Filtration:
    """The Delaunay faces up to the cap at the scales ``rule(dc, cap)``
    returns, one per face of ``dc.faces(0)``, ..., ``dc.faces(cap)`` in
    turn, through ``Filtration._from_arrays``.

    Warns when the triangulation's tie-break decided a cospherical case, and
    raises DuplicatePoints on coincident points, also for n = 2.
    """
    _check_delaunay_cap(spec, cloud.dim)
    cap = spec.max_hom_dim + 1
    n = len(cloud)
    if n <= 2:  # no triangulation: the Rips vertices and edge
        if n == 2 and np.array_equal(cloud[0], cloud[1]):
            raise DuplicatePoints("points 0 and 1 coincide")
        return build_rips(cloud, FiltrationSpec("rips", spec.max_hom_dim))
    dc = delaunay(cloud)
    if dc.degenerate:  # stacklevel 3 names the caller of build_*
        warnings.warn("cospherical points: the filtration may depend on the "
                      "Delaunay tie-break", stacklevel=3)
    return Filtration._from_arrays([dc.faces(k) for k in range(cap + 1)],
                                   rule(dc, cap), cap)


def _rips_scales(dc, cap):
    """The Rips rule of both Rips builders: vertices at 0, edges at their
    ``distances`` length, and each higher simplex at the maximum over its
    facets, its largest edge length. Here it runs bottom-up over the
    Delaunay faces, the twin of Alpha's coface minimum, with lengths for the
    Delaunay edges only, so no O(n^2) array is made."""
    value = [np.zeros(len(dc.faces(0))), distances(*dc.cloud.points[dc.faces(1).T])]
    for k in range(2, cap + 1):
        _, facet_row, owner, _ = dc._cofaces(k - 1)
        value.append(np.zeros(len(dc.faces(k))))
        np.maximum.at(value[k], owner, value[k - 1][facet_row])
    return np.concatenate(value)


def build_delaunay_rips(cloud: PointCloud, spec: FiltrationSpec) -> Filtration:
    """Delaunay-Rips filtration: the faces of the Delaunay triangulation at
    the Rips scale of ``_rips_scales``."""
    return _delaunay_filtration(cloud, spec, _rips_scales)


def _alpha_scales(dc, cap):
    """Alpha rule: circumdiameters, clamped to the cofaces top-down.

    Top simplices take their circumdiameter. Below, a face's coface minimum
    comes from the complex's facet incidence of the dimension above. A face
    is attached when the vertex opposite it in one of those cofaces lies
    strictly inside its smallest circumball (Edelsbrunner and Muecke,
    "Three-dimensional alpha shapes", 1994), one exact ``diametral_signs``
    test per incidence. An attached face takes the coface minimum, any other
    face its circumdiameter capped at that minimum (rounding can put it
    above). Edges take their ``distances`` length, triangles and tetrahedra
    their ``circumdiameters``. The kernels read the cloud by the faces' ids
    and scale it themselves: no array of all the incidences' coordinates.
    """
    d, pts = dc.cloud.dim, dc.cloud.points
    value = [np.zeros(len(dc.faces(0))), distances(*pts[dc.faces(1).T])]
    value += [circumdiameters(pts, dc.faces(k)) for k in range(2, d + 1)]
    for k in range(d - 1, 0, -1):
        _, facet_row, owner, opposite = dc._cofaces(k)
        low = np.full(len(value[k]), np.inf)
        np.minimum.at(low, facet_row, value[k + 1][owner])
        inside = diametral_signs(pts, dc.faces(k), (facet_row, opposite)) > 0
        attached = np.bincount(facet_row[inside], minlength=len(low)) > 0
        value[k] = np.where(attached, low, np.minimum(value[k], low))
    return np.concatenate(value[:cap + 1])


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
