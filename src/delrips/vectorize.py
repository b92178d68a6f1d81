"""Fixed-length feature vectors from persistence diagrams.

Persistence images live in (birth, persistence) coordinates: each finite
pair contributes an isotropic Gaussian scaled by a linear persistence weight
that vanishes at zero persistence, and each pixel stores the exact integral
of that sum over its rectangle (separable erf form). Persistence statistics
summarize the multisets of pair means and pair persistences with eight
descriptive statistics each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PointCloud
from .errors import AllEmpty, SeriesTooShort, ValidationError

STAT_NAMES = ("mean", "std", "skew", "kurtosis", "q25", "q50", "q75", "entropy")


@dataclass(frozen=True)
class PIGrid:
    """Persistence-image grid: value ranges, resolution, and bandwidth.

    ``resolution`` is (rows, cols) = (persistence bins, birth bins); the
    flattened image is row-major with row 0 the lowest persistence band.
    """

    birth_range: tuple
    persistence_range: tuple
    resolution: tuple
    sigma: float

    def __post_init__(self):
        b0, b1 = self.birth_range
        p0, p1 = self.persistence_range
        if not (b1 > b0 and p1 > p0):
            raise ValidationError("degenerate grid ranges")
        rows, cols = self.resolution
        if rows < 1 or cols < 1:
            raise ValidationError("resolution must be at least 1x1")
        if not self.sigma > 0:
            raise ValidationError("sigma must be positive")

    @property
    def size(self) -> int:
        return self.resolution[0] * self.resolution[1]


def _finite(pairs):
    return [(b, d) for b, d in pairs if math.isfinite(d)]


def _widen(lo: float, hi: float) -> tuple:
    if hi > lo:
        return lo, hi
    pad = max(1e-9, 0.01 * abs(lo))
    return lo - pad, hi + pad


def fit_pi_grid(diagrams, resolution=(2, 2), sigma: float | None = None) -> PIGrid:
    """Grid covering all finite pairs of a diagram collection.

    ``diagrams`` is an iterable of (birth, death) pair collections, usually
    one per sample, pooled so that corresponding pixels are comparable across
    the collection. Degenerate ranges are widened slightly; the default
    bandwidth is half the pixel height.
    """
    births = []
    pers = []
    for pairs in diagrams:
        for b, d in _finite(pairs):
            births.append(b)
            pers.append(d - b)
    if not births:
        raise AllEmpty("no finite persistence pairs in the collection")
    birth_range = _widen(min(births), max(births))
    pers_range = _widen(min(pers), max(pers))
    rows, cols = resolution
    if sigma is None:
        sigma = 0.5 * (pers_range[1] - pers_range[0]) / rows
    return PIGrid(birth_range=birth_range, persistence_range=pers_range,
                  resolution=(rows, cols), sigma=sigma)


def persistence_image(pairs, grid: PIGrid) -> np.ndarray:
    """Flattened persistence image of one diagram on a fitted grid.

    Infinite pairs are excluded; zero-persistence pairs carry zero weight.
    Additive in the diagram: the image of a disjoint union is the sum of the
    images.
    """
    rows, cols = grid.resolution
    b0, b1 = grid.birth_range
    p0, p1 = grid.persistence_range
    xs = np.linspace(b0, b1, cols + 1)
    ys = np.linspace(p0, p1, rows + 1)
    s = grid.sigma * math.sqrt(2.0)
    img = np.zeros((rows, cols))
    finite = np.array(_finite(pairs), dtype=float).reshape(-1, 2)
    births = finite[:, 0]
    pers = finite[:, 1] - births
    weights = pers / p1
    kept = weights != 0.0
    births, pers, weights = births[kept], pers[kept], weights[kept]
    # Every erf argument of every pair, then one flat pass of math.erf.
    args = np.concatenate([((xs - births[:, None]) / s).reshape(-1),
                           ((ys - pers[:, None]) / s).reshape(-1)])
    erf = np.array(list(map(math.erf, args.tolist())))
    split = len(births) * (cols + 1)
    dcx = np.diff(0.5 * (1.0 + erf[:split].reshape(-1, cols + 1)), axis=1)
    dcy = np.diff(0.5 * (1.0 + erf[split:].reshape(-1, rows + 1)), axis=1)
    for w, cy, cx in zip(weights.tolist(), dcy, dcx):
        img += w * np.outer(cy, cx)
    return img.reshape(-1)


def persistent_entropy(values, log_base: float = math.e) -> float:
    """Shannon entropy of the normalized value multiset.

    Zero values contribute nothing (the 0*log(0) limit); an empty multiset
    has no defined entropy and returns NaN.
    """
    vals = [v for v in values]
    if not vals:
        return math.nan
    total = sum(vals)
    if total <= 0:
        return 0.0
    log_total = math.log(total)
    h = 0.0
    for v in vals:
        if v > 0:
            # log-difference form: v/total may underflow to 0 for extreme
            # ratios, but then the whole term vanishes with it
            h -= (v / total) * (math.log(v) - log_total)
    return h / math.log(log_base)


def _eight_stats(values, log_base: float) -> list:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return [math.nan] * 8
    mean = float(arr.mean())
    centered = arr - mean
    m2 = float(np.mean(centered ** 2))
    std = math.sqrt(m2)
    if m2 > 0:
        skew = float(np.mean(centered ** 3)) / m2 ** 1.5
        kurt = float(np.mean(centered ** 4)) / (m2 * m2) - 3.0
    else:  # constant sample: pinned conventions
        skew = 0.0
        kurt = -3.0
    q25, q50, q75 = (float(q) for q in np.percentile(arr, [25, 50, 75]))
    entropy = persistent_entropy(values, log_base)
    return [mean, std, skew, kurt, q25, q50, q75, entropy]


def persistence_stats(pairs, log_base: float = math.e) -> np.ndarray:
    """16 statistics of one diagram: eight for the multiset of pair means,
    eight for the multiset of persistences.

    Only finite pairs contribute. An empty diagram yields 16 NaNs. Moments
    are population moments, kurtosis is excess kurtosis, and percentiles use
    linear interpolation.
    """
    finite = _finite(pairs)
    means = [(b + d) / 2.0 for b, d in finite]
    lengths = [d - b for b, d in finite]
    return np.array(_eight_stats(means, log_base) + _eight_stats(lengths, log_base))


def stats_feature_vector(h0_pairs, h1_pairs, h2_pairs,
                         log_base: float = math.e) -> np.ndarray:
    """48-entry vector: persistence statistics of the H0, H1, H2 diagrams."""
    return np.concatenate([persistence_stats(p, log_base)
                           for p in (h0_pairs, h1_pairs, h2_pairs)])


def stats_header() -> list:
    return [f"h{p}_{s}_{n}" for p in range(3) for s in ("mean", "pers")
            for n in STAT_NAMES]


def delay_embed(series, embed_dim: int, tau: int, stride: int = 1) -> PointCloud:
    """Takens delay embedding of a scalar series into R^2 or R^3.

    Produces points (x_i, x_{i+tau}, ..., x_{i+(m-1)tau}) for i = 0, stride,
    2*stride, ...
    """
    vals = [float(v) for v in series]
    if embed_dim not in (2, 3):
        raise ValidationError("embed_dim must be 2 or 3")
    if tau < 1 or stride < 1:
        raise ValidationError("tau and stride must be >= 1")
    span = (embed_dim - 1) * tau
    if len(vals) < span + 1:
        raise SeriesTooShort(
            f"series of length {len(vals)} cannot host an embedding with "
            f"window {span + 1}")
    pts = []
    for start in range(0, len(vals) - span, stride):
        pts.append(tuple(vals[start + k * tau] for k in range(embed_dim)))
    return PointCloud.from_points(pts)
