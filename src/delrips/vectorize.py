"""Fixed-length feature vectors from persistence diagrams.

Persistence images live in (birth, persistence) coordinates: each finite
pair contributes an isotropic Gaussian scaled by a linear persistence weight
that vanishes at zero persistence, and each pixel stores the exact integral
of that sum over its rectangle (separable erf form). ``math.erf`` runs once
per distinct argument, and the pairs' terms are formed in ``core._blocks``
chunks, each summed with the image so far in one order-preserving pass, so
every pixel adds its terms in pair order, as a loop over the pairs would.
Persistence statistics summarize the multisets of pair means and pair
persistences with eight descriptive statistics each. ``core._pair_array``
reads every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PointCloud, _blocks, _check_int, _check_real, _pair_array
from .errors import AllEmpty, SeriesTooShort, ValidationError

STAT_NAMES = ("mean", "std", "skew", "kurtosis", "q25", "q50", "q75", "entropy")


@dataclass(frozen=True)
class PIGrid:
    """Persistence-image grid: value ranges, resolution, and bandwidth.

    Ranges are two finite reals a finite width apart. ``resolution`` is
    (rows, cols) = (persistence bins, birth bins), ints >= 1; the flattened
    image is row-major with row 0 the lowest persistence band. Pair weights
    divide by the persistence range's end, above 0.
    """

    birth_range: tuple
    persistence_range: tuple
    resolution: tuple
    sigma: float

    def __post_init__(self):
        for name in ("birth_range", "persistence_range"):
            start, end = _two(name, getattr(self, name), _check_real)
            _check_real(f"{name} width", float(end) - float(start), 0, above=True)
        _check_real("persistence_range[1]", end, 0, above=True)
        _two("resolution", self.resolution, _check_int, 1)
        _check_real("sigma", self.sigma, 0, above=True)

    @property
    def size(self) -> int:
        return self.resolution[0] * self.resolution[1]


def _two(name: str, value, check, *bounds) -> tuple:
    """The two items of ``value``, each accepted by ``check`` with these
    bounds as ``name[0]`` and ``name[1]``; else ValidationError."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be two numbers, got {value!r}") from None
    check(f"{name}[0]", first, *bounds)
    check(f"{name}[1]", second, *bounds)
    return first, second


def _finite_rows(pairs) -> np.ndarray:
    """The pairs with a finite death, as rows of ``_pair_array``."""
    arr = _pair_array(pairs)
    return arr[np.isfinite(arr[:, 1])]


def _finite(pairs) -> tuple:
    """Births, deaths and persistences (death - birth) of the pairs with a
    finite death; ValidationError when a persistence overflows."""
    births, deaths = _finite_rows(pairs).T
    with np.errstate(over="ignore"):
        pers = deaths - births
    bad = np.flatnonzero(np.isinf(pers))
    if len(bad):
        raise ValidationError(
            f"persistence of pair ({float(births[bad[0]])}, "
            f"{float(deaths[bad[0]])}) overflows")
    return births, deaths, pers


def _widen(values: np.ndarray) -> tuple:
    """The least and greatest of ``values``, widened slightly when equal."""
    lo, hi = float(values.min()), float(values.max())
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
    rows, cols = _two("resolution", resolution, _check_int, 1)
    births, deaths = np.concatenate([_finite_rows(pairs) for pairs in diagrams]
                                    + [np.empty((0, 2))]).T
    if not len(births):
        raise AllEmpty("no finite persistence pairs in the collection")
    with np.errstate(over="ignore"):  # an inf persistence, as in floats
        pers_range = _widen(deaths - births)
    if sigma is None:
        sigma = 0.5 * (pers_range[1] - pers_range[0]) / rows
    return PIGrid(birth_range=_widen(births), persistence_range=pers_range,
                  resolution=(rows, cols), sigma=sigma)


def _cell_masses(centres: np.ndarray, edges: np.ndarray, s: float) -> tuple:
    """The Gaussian mass of each cell between consecutive ``edges``,
    differences of 0.5 * (1 + erf((edge - centre) / s)), for each distinct
    centre, and each centre's row. Centres are told apart by their bits, so
    0.0 and -0.0 keep their own rows. An overflowing argument has erf +-1."""
    values, row = np.unique(centres.view(np.int64), return_inverse=True)
    with np.errstate(over="ignore"):
        args = (edges - values.view(float)[:, None]) / s
    erf = np.fromiter(map(math.erf, args.ravel().tolist()), float, args.size)
    return np.diff(0.5 * (1.0 + erf.reshape(args.shape)), axis=1), row


def persistence_image(pairs, grid: PIGrid) -> np.ndarray:
    """Flattened persistence image of one diagram on a fitted grid.

    Infinite pairs are excluded; zero-persistence pairs carry zero weight.
    Additive in the diagram: the image of a disjoint union is the sum of the
    images.
    """
    rows, cols = grid.resolution
    p1 = grid.persistence_range[1]
    xs = np.linspace(*grid.birth_range, cols + 1)
    ys = np.linspace(*grid.persistence_range, rows + 1)
    s = grid.sigma * math.sqrt(2.0)
    births, _, pers = _finite(pairs)
    weights = pers / p1
    kept = weights != 0.0
    births, pers, weights = births[kept], pers[kept], weights[kept]
    cx, bx = _cell_masses(births, xs, s)
    cy, by = _cell_masses(pers, ys, s)
    size = rows * cols
    # np.add.reduce adds along axis 0 in order only while that axis is not
    # the fastest-varying one (along that one numpy sums pairwise), so a
    # one-pixel image gets a spare column.
    img = np.zeros(max(size, 2))
    for chunk in _blocks(np.full(len(weights), size)):
        terms = np.zeros((chunk.stop - chunk.start + 1, len(img)))
        terms[0] = img
        terms[1:, :size] = (cy[by[chunk], :, None] * cx[bx[chunk], None, :]
                            ).reshape(-1, size) * weights[chunk, None]
        img = np.add.reduce(terms, axis=0)
    return img[:size]


def persistent_entropy(values, log_base: float = math.e) -> float:
    """Shannon entropy of the normalized value multiset.

    Zero values contribute nothing (the 0*log(0) limit); an empty multiset
    has no defined entropy and returns NaN. ``log_base`` must be a finite
    real above 0 and not 1, even then.
    """
    _check_real("log_base", log_base, 0, above=True)
    if log_base == 1:
        raise ValidationError(
            f"log_base must be a finite number > 0 and not 1, got {log_base!r}")
    vals = [v for v in values]
    if not vals:
        return math.nan
    total = sum(vals)
    if total == math.inf:  # the entropy is scale-free: divide by 2**bits(n)
        vals = [math.ldexp(v, -len(vals).bit_length()) for v in vals]
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


def _eight_stats(arr: np.ndarray, log_base: float) -> list:
    entropy = persistent_entropy(arr.tolist(), log_base)  # checks log_base
    if arr.size == 0:
        return [math.nan] * 7 + [entropy]
    with np.errstate(over="ignore", invalid="ignore"):
        stats = _seven_stats(arr, 0)
    if not all(map(math.isfinite, stats)):  # a sum or difference overflowed
        e = math.frexp(float(np.abs(arr).max()))[1]
        stats = [v if math.isfinite(v) else w
                 for v, w in zip(stats, _seven_stats(arr, e))]
    return stats + [entropy]


def _seven_stats(arr: np.ndarray, e: int) -> list:
    """Mean, std, skew, kurtosis and quartiles of arr times 2**-e, scaled
    back: e = 0 keeps the bits, arr's largest exponent every sum finite."""
    arr = np.ldexp(arr, -e)
    mean = float(arr.mean())
    # Scaled into [0.5, 1) by 2**-f, the moments neither overflow nor underflow.
    centered = arr - mean
    _, f = math.frexp(float(np.abs(centered).max()))
    centered = np.ldexp(centered, -f)
    m2 = float(np.mean(centered ** 2))
    std = math.ldexp(math.sqrt(m2), f + e)
    if m2 > 0:
        skew = float(np.mean(centered ** 3)) / m2 ** 1.5
        kurt = float(np.mean(centered ** 4)) / (m2 * m2) - 3.0
    else:  # constant sample: pinned conventions
        skew, kurt = 0.0, -3.0
    return [math.ldexp(mean, e), std, skew, kurt,
            *np.ldexp(np.percentile(arr, [25, 50, 75]), e).tolist()]


def persistence_stats(pairs, log_base: float = math.e) -> np.ndarray:
    """16 statistics of one diagram: eight for the multiset of pair means,
    eight for the multiset of persistences.

    Only finite pairs contribute. An empty diagram yields 16 NaNs. Moments
    are population moments, kurtosis is excess kurtosis, and percentiles use
    linear interpolation. A pair's mean birth / 2 + death / 2 cannot overflow.
    """
    births, deaths, pers = _finite(pairs)
    return np.array(_eight_stats(births / 2.0 + deaths / 2.0, log_base)
                    + _eight_stats(pers, log_base))


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
    try:
        vals = np.array([float(v) for v in series])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"a series value is not a number: {exc}") from None
    if not (isinstance(embed_dim, (int, np.integer)) and embed_dim in (2, 3)):
        raise ValidationError(f"embed_dim must be 2 or 3, got {embed_dim!r}")
    _check_int("tau", tau, 1)
    _check_int("stride", stride, 1)
    span = (embed_dim - 1) * tau
    if len(vals) < span + 1:
        raise SeriesTooShort(
            f"series of length {len(vals)} cannot host an embedding with "
            f"window {span + 1}")
    return PointCloud.from_points(np.column_stack(
        [vals[k * tau:][:len(vals) - span:stride] for k in range(embed_dim)]))
