"""Candidate features beyond Table I — the rest of the tsfresh-style pool.

Section IV-C1 extracts "a large number of candidate features" and keeps
the 25 kinds of Table I after Random-Forest importance ranking.  To
reproduce the *selection* (not just its outcome) the pool must contain
plausible candidates that did **not** make the cut; this module implements
a representative set of standard tsfresh calculators outside Table I.
They are excluded from the recognition pipeline — their only job is to
compete in `benchmarks/test_table1_selection.py`.
"""

from __future__ import annotations

import numpy as np

from repro.features.series import as_series

__all__ = [
    "mean_value",
    "median_value",
    "max_value",
    "min_value",
    "skewness",
    "zero_crossings",
    "mean_second_derivative",
    "ratio_beyond_sigma",
    "binned_entropy",
    "variance_larger_than_std",
    "index_mass_quantile",
    "range_ratio",
    "sum_of_reoccurring_values",
    "percentage_of_reoccurring_points",
]


def _clean(x) -> np.ndarray:
    return as_series(x).x


def mean_value(x: np.ndarray) -> float:
    """Plain mean — amplitude-coupled, a classic selection victim."""
    x = _clean(x)
    return float(x.mean()) if x.size else 0.0


def median_value(x: np.ndarray) -> float:
    """Plain median."""
    x = _clean(x)
    return float(np.median(x)) if x.size else 0.0


def max_value(x: np.ndarray) -> float:
    """Maximum sample value."""
    x = _clean(x)
    return float(x.max()) if x.size else 0.0


def min_value(x: np.ndarray) -> float:
    """Minimum sample value."""
    x = _clean(x)
    return float(x.min()) if x.size else 0.0


def skewness(x: np.ndarray) -> float:
    """Third standardized moment."""
    x = _clean(x)
    if x.size < 3:
        return 0.0
    s = x.std()
    if s < 1e-300:
        return 0.0
    return float(np.mean(((x - x.mean()) / s) ** 3))


def zero_crossings(x: np.ndarray) -> float:
    """Sign changes of the mean-removed series (length-normalized)."""
    x = _clean(x)
    if x.size < 2:
        return 0.0
    centred = x - x.mean()
    signs = np.sign(centred)
    signs[signs == 0] = 1
    return float(np.mean(signs[1:] != signs[:-1]))


def mean_second_derivative(x: np.ndarray) -> float:
    """Mean central second difference."""
    x = _clean(x)
    if x.size < 3:
        return 0.0
    return float(np.mean(x[2:] - 2 * x[1:-1] + x[:-2]) / 2.0)


def ratio_beyond_sigma(x: np.ndarray, r: float = 2.0) -> float:
    """Fraction of samples more than ``r`` standard deviations from the mean."""
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    x = _clean(x)
    if x.size == 0:
        return 0.0
    s = x.std()
    if s < 1e-300:
        return 0.0
    return float(np.mean(np.abs(x - x.mean()) > r * s))


def binned_entropy(x: np.ndarray, bins: int = 10) -> float:
    """Shannon entropy of the value histogram (nats)."""
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    x = _clean(x)
    if x.size == 0 or np.ptp(x) < 1e-300:
        return 0.0
    hist, _ = np.histogram(x, bins=bins)
    p = hist / hist.sum()
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def variance_larger_than_std(x: np.ndarray) -> float:
    """1.0 when variance exceeds the standard deviation (units artefact)."""
    x = _clean(x)
    if x.size == 0:
        return 0.0
    v = x.var()
    return float(v > np.sqrt(v))


def index_mass_quantile(x: np.ndarray, q: float = 0.5) -> float:
    """Relative index where the cumulative |x| mass reaches quantile *q*."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    x = np.abs(_clean(x))
    total = x.sum()
    if x.size == 0 or total < 1e-300:
        return 0.0
    cum = np.cumsum(x) / total
    return float((np.argmax(cum >= q) + 1) / x.size)


def range_ratio(x: np.ndarray) -> float:
    """Peak-to-peak over max |value| — a crude crest descriptor."""
    x = _clean(x)
    if x.size == 0:
        return 0.0
    denom = np.abs(x).max()
    if denom < 1e-300:
        return 0.0
    return float(np.ptp(x) / denom)


def sum_of_reoccurring_values(x: np.ndarray) -> float:
    """Sum of values that occur more than once (quantized to counts)."""
    x = np.round(_clean(x), 6)
    if x.size == 0:
        return 0.0
    values, counts = np.unique(x, return_counts=True)
    return float(values[counts > 1].sum())


def percentage_of_reoccurring_points(x: np.ndarray) -> float:
    """Fraction of samples whose (quantized) value occurs more than once."""
    x = np.round(_clean(x), 6)
    if x.size == 0:
        return 0.0
    _, inverse, counts = np.unique(x, return_inverse=True,
                                   return_counts=True)
    return float(np.mean(counts[inverse] > 1))
