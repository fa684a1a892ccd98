"""The named feature catalogue: every Table-I family with its variants.

Table I of the paper lists 25 selected feature *families* (rows); most
families expand into several concrete parameterized features (e.g.
``quantile`` at several ``q``, ``autocorrelation`` at several lags), the
same way tsfresh expands its calculators.  The registry enumerates all
concrete features with stable names of the form ``family[__param=value...]``.

Nine families are printed **bold** in Table I — they are the subset reused
by the interference-removal classifier of Section IV-F.  The markdown
source of the paper loses the bold markup, so which nine rows were bold is
not recoverable; we designate the nine families below (amplitude, energy,
regularity and trend descriptors) as the bold set and record the assumption
in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.features import frequency as fd
from repro.features import timedomain as td
from repro.features.series import Series

__all__ = [
    "FeatureSpec",
    "feature_registry",
    "extended_registry",
    "all_feature_names",
    "bold_feature_names",
    "family_of",
    "FAMILY_NAMES",
    "BOLD_FAMILIES",
    "CANDIDATE_FAMILIES",
]

# The 25 Table-I families (23 time-domain + FFT + CWT).
FAMILY_NAMES: tuple[str, ...] = (
    "standard_deviation",
    "variance",
    "count_mean",                 # Count below/above mean
    "last_location_of_maximum",
    "partial_autocorrelation",
    "first_location_extrema",     # First location of minimum/maximum
    "sample_entropy",
    "longest_strike",             # Longest strike above/below mean
    "kurtosis",
    "ar",
    "autocorrelation",
    "number_of_peaks",
    "quantile",
    "cid",                        # Complexity-invariant distance
    "mean_absolute_change",
    "time_reversal_asymmetry",
    "absolute_energy",
    "energy_ratio_by_chunks",
    "approximate_entropy",
    "length",
    "linear_trend",
    "augmented_dickey_fuller",
    "c3",
    "fft",
    "cwt",
)

# Candidate families from the wider tsfresh-style pool that Table I does
# NOT include: they compete in the selection reproduction
# (benchmarks/test_table1_selection.py) but never feed the pipeline.
CANDIDATE_FAMILIES: tuple[str, ...] = (
    "cand_mean",
    "cand_median",
    "cand_extrema",
    "cand_skewness",
    "cand_zero_crossings",
    "cand_second_derivative",
    "cand_ratio_beyond_sigma",
    "cand_binned_entropy",
    "cand_variance_flag",
    "cand_index_mass_quantile",
    "cand_range_ratio",
    "cand_reoccurring",
)

# The nine bold families used by the gesture / non-gesture filter.
BOLD_FAMILIES: tuple[str, ...] = (
    "standard_deviation",
    "variance",
    "number_of_peaks",
    "mean_absolute_change",
    "absolute_energy",
    "sample_entropy",
    "autocorrelation",
    "fft",
    "linear_trend",
)


@dataclass(frozen=True)
class FeatureSpec:
    """One concrete, parameterized feature.

    Parameters
    ----------
    name:
        Unique stable identifier, e.g. ``"quantile__q=0.8"``.
    family:
        The Table-I row this feature belongs to.
    func:
        Scalar feature function ``f(x, **params) -> float``.
    params:
        Keyword arguments bound at extraction time.
    category:
        ``"time"`` or ``"frequency"``.
    bold:
        Whether the family is in the bold (interference-filter) subset.
    """

    name: str
    family: str
    func: Callable[..., float]
    params: dict = field(default_factory=dict)
    category: str = "time"
    bold: bool = False

    def __post_init__(self) -> None:
        if (self.family not in FAMILY_NAMES
                and self.family not in CANDIDATE_FAMILIES):
            raise ValueError(f"unknown family {self.family!r}")
        if self.category not in ("time", "frequency"):
            raise ValueError(f"category must be 'time' or 'frequency'")

    @property
    def is_table1(self) -> bool:
        """True when the family is one of the paper's Table-I rows."""
        return self.family in FAMILY_NAMES

    def compute(self, signal: np.ndarray | Series) -> float:
        """Evaluate the feature on *signal*, guaranteeing a finite float.

        *signal* is a raw array or a :class:`~repro.features.series.Series`
        whose memoized intermediates the feature may share.  Floating-point
        overflow on overflow-scale signals stays quiet: such a value comes
        out non-finite and reads as 0.
        """
        with np.errstate(all="ignore"):
            return self.finite_value(signal)

    def finite_value(self, signal: np.ndarray | Series) -> float:
        """:meth:`compute` under the caller's floating-point error state
        (the extractor sets it once for all of a signal's features)."""
        value = float(self.func(signal, **self.params))
        if not math.isfinite(value):
            return 0.0
        return value


def _spec(family: str, func: Callable[..., float],
          category: str = "time", **params) -> FeatureSpec:
    if params:
        suffix = "__" + "_".join(f"{k}={v}" for k, v in sorted(params.items()))
    else:
        suffix = ""
    base = func.__name__
    return FeatureSpec(
        name=f"{base}{suffix}",
        family=family,
        func=func,
        params=params,
        category=category,
        bold=family in BOLD_FAMILIES)


@lru_cache(maxsize=1)
def feature_registry() -> tuple[FeatureSpec, ...]:
    """All concrete features, in a stable order."""
    specs: list[FeatureSpec] = [
        _spec("standard_deviation", td.standard_deviation),
        _spec("variance", td.variance),
        _spec("count_mean", td.count_above_mean),
        _spec("count_mean", td.count_below_mean),
        _spec("last_location_of_maximum", td.last_location_of_maximum),
        _spec("first_location_extrema", td.first_location_of_maximum),
        _spec("first_location_extrema", td.first_location_of_minimum),
        _spec("sample_entropy", td.sample_entropy),
        _spec("longest_strike", td.longest_strike_above_mean),
        _spec("longest_strike", td.longest_strike_below_mean),
        _spec("kurtosis", td.kurtosis),
        _spec("mean_absolute_change", td.mean_absolute_change),
        _spec("absolute_energy", td.absolute_energy),
        _spec("approximate_entropy", td.approximate_entropy),
        _spec("length", td.series_length),
        _spec("linear_trend", td.linear_trend_slope),
        _spec("linear_trend", td.linear_trend_r2),
        _spec("augmented_dickey_fuller", td.augmented_dickey_fuller),
        _spec("cid", td.complexity_invariant_distance, normalize=True),
        _spec("cid", td.complexity_invariant_distance, normalize=False),
    ]
    for lag in (1, 2, 3):
        specs.append(_spec("partial_autocorrelation",
                           td.partial_autocorrelation, lag=lag))
        specs.append(_spec("time_reversal_asymmetry",
                           td.time_reversal_asymmetry, lag=lag))
        specs.append(_spec("c3", td.c3, lag=lag))
    for lag in (1, 2, 3, 5, 10, 20, 40):
        specs.append(_spec("autocorrelation", td.autocorrelation, lag=lag))
    for fraction in (0.25, 0.33, 0.5):
        specs.append(_spec("autocorrelation", td.autocorrelation_relative,
                           fraction=fraction))
    for k in range(5):
        specs.append(_spec("ar", td.ar_coefficient, k=k, order=4))
    for support in (1, 3, 5):
        specs.append(_spec("number_of_peaks", td.number_of_peaks,
                           support=support))
    for support in (3, 6):
        specs.append(_spec("number_of_peaks", td.number_of_peaks,
                           support=support, smooth=15))
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        specs.append(_spec("quantile", td.quantile, q=q))
    for chunk in range(10):
        specs.append(_spec("energy_ratio_by_chunks",
                           td.energy_ratio_by_chunks,
                           n_chunks=10, chunk=chunk))
    for k in (1, 2, 3, 4, 5, 6, 8):
        specs.append(_spec("fft", fd.fft_coefficient_abs,
                           category="frequency", k=k))
    specs.extend([
        _spec("fft", fd.fft_spectral_centroid, category="frequency"),
        _spec("fft", fd.fft_spectral_spread, category="frequency"),
        _spec("fft", fd.fft_spectral_entropy, category="frequency"),
        _spec("fft", fd.fft_peak_frequency_bin, category="frequency"),
    ])
    for width in (2.0, 5.0, 10.0, 20.0):
        specs.append(_spec("cwt", fd.cwt_energy,
                           category="frequency", width=width))
    specs.append(_spec("cwt", fd.cwt_peak_width, category="frequency"))

    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise RuntimeError(f"duplicate feature names in registry: {dupes}")
    return tuple(specs)


@lru_cache(maxsize=1)
def extended_registry() -> tuple[FeatureSpec, ...]:
    """The Table-I features plus the wider candidate pool.

    This is the "large number of candidate features" of Section IV-C1:
    the selection benchmark ranks this pool and checks that the Table-I
    families dominate the top of the ranking.
    """
    from repro.features import candidates as cd

    extra: list[FeatureSpec] = [
        _spec("cand_mean", cd.mean_value),
        _spec("cand_median", cd.median_value),
        _spec("cand_extrema", cd.max_value),
        _spec("cand_extrema", cd.min_value),
        _spec("cand_skewness", cd.skewness),
        _spec("cand_zero_crossings", cd.zero_crossings),
        _spec("cand_second_derivative", cd.mean_second_derivative),
        _spec("cand_variance_flag", cd.variance_larger_than_std),
        _spec("cand_range_ratio", cd.range_ratio),
        _spec("cand_reoccurring", cd.sum_of_reoccurring_values),
        _spec("cand_reoccurring", cd.percentage_of_reoccurring_points),
    ]
    for r in (1.0, 2.0, 3.0):
        extra.append(_spec("cand_ratio_beyond_sigma",
                           cd.ratio_beyond_sigma, r=r))
    for bins in (5, 10, 20):
        extra.append(_spec("cand_binned_entropy",
                           cd.binned_entropy, bins=bins))
    for q in (0.25, 0.5, 0.75):
        extra.append(_spec("cand_index_mass_quantile",
                           cd.index_mass_quantile, q=q))
    return feature_registry() + tuple(extra)


def all_feature_names() -> tuple[str, ...]:
    """Names of every concrete feature, in registry order."""
    return tuple(s.name for s in feature_registry())


def bold_feature_names() -> tuple[str, ...]:
    """Names of the bold-subset features (interference filter inputs)."""
    return tuple(s.name for s in feature_registry() if s.bold)


def family_of(feature_name: str) -> str:
    """The Table-I family a concrete feature belongs to."""
    for s in feature_registry():
        if s.name == feature_name:
            return s.family
    raise KeyError(f"unknown feature {feature_name!r}")
