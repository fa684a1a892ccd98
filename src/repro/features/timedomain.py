"""The 23 time-domain feature families of Table I, implemented from scratch.

Every function takes a 1-D signal — a raw array, or a
:class:`~repro.features.series.Series` whose cleaned copy and memoized
intermediates it shares with the other features of the same signal —
and returns a scalar ``float`` (or is parameterized by keyword arguments
declared in the registry).  All functions are total: degenerate inputs
(empty, constant, too short for the requested lag) return well-defined
finite values rather than raising, since a segmenter occasionally
produces very short gesture candidates and the classifier must still
receive a finite feature vector.
"""

from __future__ import annotations

import math

import numpy as np

from repro.features.series import Series, as_series, mean_of
from repro.utils import box_kernel, sorted_quantile

__all__ = [
    "standard_deviation",
    "variance",
    "count_above_mean",
    "count_below_mean",
    "last_location_of_maximum",
    "first_location_of_maximum",
    "first_location_of_minimum",
    "partial_autocorrelation",
    "sample_entropy",
    "longest_strike_above_mean",
    "longest_strike_below_mean",
    "kurtosis",
    "ar_coefficient",
    "autocorrelation",
    "autocorrelation_relative",
    "number_of_peaks",
    "quantile",
    "complexity_invariant_distance",
    "mean_absolute_change",
    "time_reversal_asymmetry",
    "absolute_energy",
    "energy_ratio_by_chunks",
    "approximate_entropy",
    "series_length",
    "linear_trend_slope",
    "linear_trend_r2",
    "augmented_dickey_fuller",
    "c3",
]


def _clip1(value) -> float:
    """*value* clipped to ``[-1, 1]`` (NaN passes through)."""
    return float(min(max(value, -1.0), 1.0))


# ---------------------------------------------------------------------------
# dispersion & location
# ---------------------------------------------------------------------------

def standard_deviation(x: np.ndarray | Series) -> float:
    """Population standard deviation."""
    s = as_series(x)
    return float(s.std()) if s.x.size else 0.0


def variance(x: np.ndarray | Series) -> float:
    """Population variance."""
    s = as_series(x)
    return float(s.var()) if s.x.size else 0.0


def count_above_mean(x: np.ndarray | Series) -> float:
    """Fraction of samples strictly above the mean (length-normalized)."""
    s = as_series(x)
    if s.x.size == 0:
        return 0.0
    return np.count_nonzero(s.x > s.mean()) / s.x.size


def count_below_mean(x: np.ndarray | Series) -> float:
    """Fraction of samples strictly below the mean (length-normalized)."""
    s = as_series(x)
    if s.x.size == 0:
        return 0.0
    return np.count_nonzero(s.x < s.mean()) / s.x.size


def last_location_of_maximum(x: np.ndarray | Series) -> float:
    """Relative index (0..1) of the last occurrence of the maximum."""
    x = as_series(x).x
    if x.size == 0:
        return 0.0
    return float((x.size - 1 - np.argmax(x[::-1])) / x.size)


def first_location_of_maximum(x: np.ndarray | Series) -> float:
    """Relative index (0..1) of the first occurrence of the maximum."""
    x = as_series(x).x
    if x.size == 0:
        return 0.0
    return float(np.argmax(x) / x.size)


def first_location_of_minimum(x: np.ndarray | Series) -> float:
    """Relative index (0..1) of the first occurrence of the minimum."""
    x = as_series(x).x
    if x.size == 0:
        return 0.0
    return float(np.argmin(x) / x.size)


def quantile(x: np.ndarray | Series, q: float = 0.5) -> float:
    """The q-quantile of the series: ``np.quantile(x, q)``.

    Read off the series' sorted samples, every *q* from the one sort; a
    zero order statistic takes ``np.quantile`` itself, whose partition may
    pick a different signed zero than the sort (as may the vectorized
    ``np.quantile(x, qs)``).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be within [0, 1], got {q}")
    s = as_series(x)
    if s.x.size == 0:
        return 0.0
    value = sorted_quantile(s.sorted(), q)
    return float(np.quantile(s.x, q)) if value is None else value


def series_length(x: np.ndarray | Series) -> float:
    """Number of samples ("Length" in Table I)."""
    return float(as_series(x).x.size)


# ---------------------------------------------------------------------------
# correlation structure
# ---------------------------------------------------------------------------

def _autocorrelation(x: np.ndarray, lag: int) -> float:
    n = x.size
    if n <= lag + 1:
        return 0.0
    # each half's deviations from its own mean, as np.var forms them
    head = x[:-lag]
    head = head - mean_of(head)
    tail = x[lag:]
    tail = tail - mean_of(tail)
    # sqrt each variance before multiplying: the product of two tiny
    # variances (a near-constant series of denormal-scale values) can
    # underflow to zero even when both factors are representable
    s_head = math.sqrt(mean_of(head * head))
    s_tail = math.sqrt(mean_of(tail * tail))
    denominator = s_head * s_tail
    if denominator < 1e-300:
        return 0.0
    return _clip1(mean_of(head * tail) / denominator)


def _acf(s: Series, lag: int) -> float:
    """:func:`autocorrelation` at *lag*, memoized per lag."""
    return s.memo(("acf", lag), _autocorrelation, s.x, lag)


def autocorrelation(x: np.ndarray | Series, lag: int = 1) -> float:
    """Sample autocorrelation at *lag* (0 for degenerate input).

    Computed as the Pearson correlation of the series with its lagged
    self, normalizing by both segments' own variances: Cauchy-Schwarz
    then bounds the value to ``[-1, 1]`` for every input, where the
    whole-series-variance estimator can exceed 1 at large lags on short,
    spiky series.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    return _acf(as_series(x), lag)


def autocorrelation_relative(x: np.ndarray | Series,
                             fraction: float = 0.5) -> float:
    """Autocorrelation at a lag that is a *fraction* of the series length.

    Gesture repetitions scale the whole waveform in time (a double circle
    is two copies of a circle), so periodicity shows up at length-relative
    lags rather than at any fixed lag.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    s = as_series(x)
    lag = max(1, int(round(fraction * s.x.size)))
    if s.x.size <= lag + 1:
        return 0.0
    return _acf(s, lag)


def _durbin_levinson(s: Series, k: int) -> np.ndarray:
    """Row *k* of the Durbin-Levinson table, ``phi[k, 0..k]``.

    Row *k* extends row ``k - 1``; rows are memoized, so partial
    autocorrelations at lags 1..L cost one recursion to L.
    """
    rho = np.array([1.0] + [_acf(s, j) for j in range(1, k + 1)])
    phi = np.zeros(k + 1)
    if k == 1:
        phi[1] = rho[1]
        return phi
    prev = s.memo(("pacf", k - 1), _durbin_levinson, s, k - 1)
    num = rho[k] - np.dot(prev[1:k], rho[1:k][::-1])
    den = 1.0 - np.dot(prev[1:k], rho[1:k])
    phi[k] = num / den if abs(den) > 1e-12 else 0.0
    for j in range(1, k):
        phi[j] = prev[j] - phi[k] * prev[k - j]
    return phi


def partial_autocorrelation(x: np.ndarray | Series, lag: int = 1) -> float:
    """Partial autocorrelation at *lag* via the Durbin-Levinson recursion."""
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    s = as_series(x)
    if s.x.size <= lag + 1:
        return 0.0
    return _clip1(s.memo(("pacf", lag), _durbin_levinson, s, lag)[lag])


def _lstsq(design: np.ndarray, target: np.ndarray):
    """``np.linalg.lstsq``'s ``(coefficients, rank)``, or None when the
    design or the target holds a non-finite value (LAPACK would fail to
    converge on it)."""
    if not (np.isfinite(design).all() and np.isfinite(target).all()):
        return None
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    return coeffs, rank


def _ar_fit(x: np.ndarray, order: int) -> np.ndarray | None:
    n = x.size
    rows = np.stack([x[order - j - 1: n - j - 1] for j in range(order)], axis=1)
    design = np.column_stack([np.ones(len(rows)), rows])
    fit = _lstsq(design, x[order:])
    return None if fit is None else fit[0]


def ar_coefficient(x: np.ndarray | Series, k: int = 1, order: int = 4) -> float:
    """Coefficient *k* of a least-squares AR(*order*) model (k=0 is intercept)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0 <= k <= order:
        raise ValueError(f"k must be within [0, {order}], got {k}")
    s = as_series(x)
    if s.x.size <= order + 2:
        return 0.0
    coeffs = s.memo(("ar", order), _ar_fit, s.x, order)
    if coeffs is None:
        return 0.0
    value = float(coeffs[k])
    return value if math.isfinite(value) else 0.0


# ---------------------------------------------------------------------------
# entropy & complexity
# ---------------------------------------------------------------------------

# Both entropies compare templates (length-m windows) by Chebyshev
# distance: templates i and j match within r iff |x[i+k] - x[j+k]| <= r
# for every k < m.  That is the AND of m shifted diagonals of one pairwise
# tolerance matrix, so one n x n boolean matrix per signal serves every
# template length of both entropies.

#: the entropies read at most this many samples (their cost is quadratic)
_ENTROPY_MAX_SAMPLES = 4000


def _matches(s: Series, m: int, r_factor: float) -> np.ndarray | None:
    """``[i, j]``: whether length-*m* templates i and j match within
    ``r = r_factor * std``; memoized per m, None when r < 1e-300."""
    return s.memo(("matches", m, r_factor), _compute_matches, s, m, r_factor)


def _compute_matches(s: Series, m: int, r_factor: float):
    if m > 1:
        shorter = _matches(s, m - 1, r_factor)
        if shorter is None:
            return None
        tolerance = _matches(s, 1, r_factor)
        return shorter[:-1, :-1] & tolerance[m - 1:, m - 1:]
    x = s.x[:_ENTROPY_MAX_SAMPLES]
    r = r_factor * (s.std() if x.size == s.x.size else np.std(x))
    if r < 1e-300:
        return None
    d = np.subtract.outer(x, x)
    np.abs(d, out=d)
    return d <= r


def approximate_entropy(x: np.ndarray | Series, m: int = 2,
                        r_factor: float = 0.2) -> float:
    """ApEn(m, r) with tolerance ``r = r_factor * std(x)``."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    s = as_series(x)
    n = min(s.x.size, _ENTROPY_MAX_SAMPLES)
    if n < m + 2 or _matches(s, 1, r_factor) is None:
        return 0.0

    def phi(mm: int) -> float:
        counts = _matches(s, mm, r_factor).sum(axis=1).astype(np.float64)
        frac = counts / (n - mm + 1)
        return float(mean_of(np.log(np.maximum(frac, 1e-300))))

    return abs(phi(m) - phi(m + 1))


def sample_entropy(x: np.ndarray | Series, m: int = 2,
                   r_factor: float = 0.2) -> float:
    """SampEn(m, r) with tolerance ``r = r_factor * std(x)``."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    s = as_series(x)
    n = min(s.x.size, _ENTROPY_MAX_SAMPLES)
    if n < m + 2 or _matches(s, 1, r_factor) is None:
        return 0.0

    def pairs(matches: np.ndarray):
        # matches per template, self-match excluded, summed
        counts = matches.sum(axis=1).astype(np.float64) - 1.0
        return np.maximum(counts, 0.0).sum()

    # B: m-length matches among the templates of the first n - 1 samples,
    # A: (m+1)-length matches, both excluding self-matches
    b = pairs(_matches(s, m, r_factor)[:n - m, :n - m])
    a = pairs(_matches(s, m + 1, r_factor))
    if b <= 0.0:
        return 0.0
    if a <= 0.0:
        return float(np.log(b) + 1e-12)  # no (m+1) matches: maximal irregularity proxy
    return float(-np.log(a / b))


def complexity_invariant_distance(x: np.ndarray | Series,
                                  normalize: bool = True) -> float:
    """CID (Batista et al. 2014): ``sqrt(sum(diff(x)^2))``, optionally z-normed."""
    s = as_series(x)
    x = s.x
    if x.size < 2:
        return 0.0
    if normalize:
        if s.std() < 1e-300:
            return 0.0
        x = s.zscore()
    step = x[1:] - x[:-1]
    return math.sqrt(np.add.reduce(step * step))


def c3(x: np.ndarray | Series, lag: int = 1) -> float:
    """The c3 nonlinearity statistic (Schreiber & Schmitz 1997)."""
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    x = as_series(x).x
    n = x.size
    if n <= 2 * lag:
        return 0.0
    return float(mean_of(x[2 * lag:] * x[lag:n - lag] * x[: n - 2 * lag]))


def time_reversal_asymmetry(x: np.ndarray | Series, lag: int = 1) -> float:
    """Time-reversal asymmetry statistic at *lag*."""
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    x = as_series(x).x
    n = x.size
    if n <= 2 * lag:
        return 0.0
    a = x[2 * lag:]
    b = x[lag: n - lag]
    c = x[: n - 2 * lag]
    return float(mean_of(a * a * b - b * c * c))


# ---------------------------------------------------------------------------
# shape & runs
# ---------------------------------------------------------------------------

def kurtosis(x: np.ndarray | Series) -> float:
    """Excess kurtosis (Fisher definition)."""
    s = as_series(x)
    if s.x.size < 4:
        return 0.0
    if s.std() < 1e-300:
        return 0.0
    return float(mean_of(s.zscore() ** 4) - 3.0)


def _longest_run(mask: np.ndarray) -> int:
    if mask.size == 0 or not mask.any():
        return 0
    padded = np.concatenate([[0], mask.astype(np.int8), [0]])
    edges = np.diff(padded)
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]
    return int((ends - starts).max())


def longest_strike_above_mean(x: np.ndarray | Series) -> float:
    """Longest run of consecutive samples above the mean (length-normalized)."""
    s = as_series(x)
    if s.x.size == 0:
        return 0.0
    return _longest_run(s.x > s.mean()) / s.x.size


def longest_strike_below_mean(x: np.ndarray | Series) -> float:
    """Longest run of consecutive samples below the mean (length-normalized)."""
    s = as_series(x)
    if s.x.size == 0:
        return 0.0
    return _longest_run(s.x < s.mean()) / s.x.size


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    # np.convolve(x, kernel, "same"): x is at least width long
    return np.correlate(x, box_kernel(width), "same")


def number_of_peaks(x: np.ndarray | Series, support: int = 3,
                    smooth: int = 1) -> float:
    """Count of samples larger than their *support* neighbours on both sides.

    With ``smooth > 1`` the signal is moving-average filtered first, so the
    count reflects envelope humps (gesture strokes) rather than sample
    noise — a double circle has twice the humps of a circle regardless of
    tempo.
    """
    if support < 1:
        raise ValueError(f"support must be >= 1, got {support}")
    if smooth < 1:
        raise ValueError(f"smooth must be >= 1, got {smooth}")
    s = as_series(x)
    x = s.x
    if smooth > 1 and x.size >= smooth:
        x = s.memo(("smooth", smooth), _moving_average, x, smooth)
    n = x.size
    if n < 2 * support + 1:
        return 0.0
    core = x[support: n - support]
    is_peak = np.ones(core.size, dtype=bool)
    for k in range(1, support + 1):
        is_peak &= core > x[support - k: n - support - k]
        is_peak &= core > x[support + k: n - support + k]
    return float(is_peak.sum())


# ---------------------------------------------------------------------------
# energy & change
# ---------------------------------------------------------------------------

def absolute_energy(x: np.ndarray | Series) -> float:
    """Sum of squared values, normalized by length (mean power)."""
    s = as_series(x)
    if s.x.size == 0:
        return 0.0
    return float(s.mean_square())


def mean_absolute_change(x: np.ndarray | Series) -> float:
    """Mean of absolute first differences."""
    x = as_series(x).x
    if x.size < 2:
        return 0.0
    return float(mean_of(np.abs(x[1:] - x[:-1])))


def _chunks(x: np.ndarray, n_chunks: int) -> tuple[float, np.ndarray,
                                                   list[int]]:
    """``(total energy, x * x, chunk bounds)``: chunk i is
    ``[bounds[i], bounds[i + 1])``, as ``np.array_split`` cuts it — the
    first ``n % n_chunks`` chunks one sample longer than the rest."""
    size, extra = divmod(x.size, n_chunks)
    bounds = [i * size + min(i, extra) for i in range(n_chunks + 1)]
    square = x * x
    return float(np.add.reduce(square)), square, bounds


def energy_ratio_by_chunks(x: np.ndarray | Series, n_chunks: int = 10,
                           chunk: int = 0) -> float:
    """Energy of chunk *chunk* divided by total energy."""
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if not 0 <= chunk < n_chunks:
        raise ValueError(f"chunk must be within [0, {n_chunks}), got {chunk}")
    s = as_series(x)
    if s.x.size == 0:
        return 0.0
    total, square, bounds = s.memo(("chunks", n_chunks), _chunks, s.x,
                                   n_chunks)
    if total < 1e-300:
        return 0.0
    part = square[bounds[chunk]:bounds[chunk + 1]]
    return float(np.add.reduce(part) / total)


# ---------------------------------------------------------------------------
# trend & stationarity
# ---------------------------------------------------------------------------

def _linear_fit(y: np.ndarray) -> tuple[float, float]:
    """(slope, r^2) of the mean-removed series *y* against its sample
    index."""
    t = np.arange(y.size, dtype=np.float64)
    t -= mean_of(t)
    denom = np.add.reduce(t * t)
    if denom < 1e-300:
        return 0.0, 0.0
    slope = float(np.add.reduce(t * y) / denom)
    ss_tot = float(np.add.reduce(y * y))
    if ss_tot < 1e-300:
        return slope, 0.0
    ss_reg = slope * slope * denom
    return slope, float(min(ss_reg / ss_tot, 1.0))


def linear_trend_slope(x: np.ndarray | Series) -> float:
    """Slope of the least-squares line through the series."""
    s = as_series(x)
    if s.x.size < 2:
        return 0.0
    return s.memo("linear_fit", _linear_fit, s.centred())[0]


def linear_trend_r2(x: np.ndarray | Series) -> float:
    """R^2 of the least-squares line through the series."""
    s = as_series(x)
    if s.x.size < 2:
        return 0.0
    return s.memo("linear_fit", _linear_fit, s.centred())[1]


def augmented_dickey_fuller(x: np.ndarray | Series, max_lag: int = 1) -> float:
    """ADF test statistic (t-ratio of the unit-root coefficient).

    A fixed-lag implementation of the augmented Dickey-Fuller regression
    ``Δx_t = α + β x_{t-1} + Σ γ_i Δx_{t-i} + ε``; returns the t-statistic
    of ``β``.  Strongly negative values indicate stationarity.
    """
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    x = as_series(x).x
    n = x.size
    if n < max_lag + 8:
        return 0.0
    dx = np.diff(x)
    start = max_lag
    target = dx[start:]
    cols = [np.ones(target.size), x[start:-1]]
    for i in range(1, max_lag + 1):
        cols.append(dx[start - i: dx.size - i])
    design = np.column_stack(cols)
    fit = _lstsq(design, target)
    if fit is None:
        return 0.0
    coeffs, rank = fit
    dof = target.size - design.shape[1]
    if dof <= 0 or rank < design.shape[1]:
        return 0.0
    resid = target - design @ coeffs
    sigma2 = float(resid @ resid) / dof
    try:
        cov = sigma2 * np.linalg.inv(design.T @ design)
    except np.linalg.LinAlgError:
        return 0.0
    se = math.sqrt(max(cov[1, 1], 1e-300))
    stat = float(coeffs[1] / se)
    return stat if math.isfinite(stat) else 0.0
