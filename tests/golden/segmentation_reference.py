"""The parent segmenter's threshold refresh: quantile, Otsu, refresh.

These are the implementations the engine ran before the refresh was
rebuilt on one sort of the window, kept verbatim as the reference that
``tests/property/test_property_segmentation.py`` and
``benchmarks/test_threshold_refresh.py`` hold today's
:mod:`repro.core.segmentation` to, bit for bit.  Only the imports and
the :func:`reference_refresh` wrapper around ``_refresh_from``'s body
(the config is an argument instead of ``self.config``) are new.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import AirFingerConfig


def fast_quantile(values: np.ndarray, q: float) -> float:
    """Bit-identical ``np.quantile(values, q)`` without its call overhead.

    ``np.quantile`` spends ~50 µs per call on argument normalization —
    painful for the streaming hot paths (threshold refresh, sweep
    statistics) that evaluate small quantiles thousands of times.  This
    replays numpy's default ``linear`` method directly: partition at the
    two bracketing order statistics and interpolate with the same
    lesser/greater-gamma formulas, so the result carries the exact same
    bits.  Inputs containing NaN/inf fall back to ``np.quantile``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    a = np.asarray(values, dtype=np.float64).ravel()
    n = a.size
    if n == 0 or not np.all(np.isfinite(a)):
        return float(np.quantile(a, q))
    virtual = q * (n - 1)
    lo = int(virtual)
    hi = min(lo + 1, n - 1)
    gamma = virtual - lo
    part = np.partition(a, (lo, hi))
    below, above = part[lo], part[hi]
    diff = above - below
    # numpy's _lerp switches formula at gamma >= 0.5 to stay monotone
    if gamma >= 0.5:
        return float(above - diff * (1.0 - gamma))
    return float(below + diff * gamma)


def otsu_threshold(values: np.ndarray,
                   n_bins: int = 128,
                   initial: float = 10.0) -> float:
    """The threshold maximizing inter-class variance over *values*.

    Parameters
    ----------
    values:
        Accumulated ΔRSS² readings.
    n_bins:
        Histogram resolution of the candidate-threshold search.
    initial:
        Returned when *values* is too small or degenerate for calibration
        (the paper's initial threshold ``I'_seg``).

    Notes
    -----
    ΔRSS² is heavy-tailed over several decades (quiet floor vs gesture
    excursions), so the entire Otsu computation — histogram, class weights,
    class means, inter-class variance — runs in **log space**.  In linear
    space the enormous gesture values dominate the class means and push the
    split far into the gesture mode; in log space the two modes are
    comparably sized and the maximizer lands in the valley between them.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    values = values[np.isfinite(values) & (values >= 0.0)]
    if values.size < 16:
        return float(initial)
    positive = values[values > 0.0]
    if positive.size < 16:
        return float(initial)
    log_vals = np.log(positive)
    lo, hi = float(log_vals.min()), float(log_vals.max())
    if hi - lo < 1e-9:
        return float(initial)
    # np.linspace(lo, hi, n_bins + 1) spelled out (same bits, less overhead):
    # arange * step, += start, endpoint forced to stop
    edges = np.arange(0, n_bins + 1, dtype=np.float64)
    edges *= (hi - lo) / n_bins
    edges += lo
    edges[-1] = hi
    # np.histogram(log_vals, bins=edges) without its sort/chunk machinery.
    # Every value lies in [lo, hi] by construction, so the bin index is just
    # the rightmost edge <= value, with the top edge folded into the last
    # bin — np.histogram's half-open-except-last convention.
    idx = np.searchsorted(edges, log_vals, side="right") - 1
    np.minimum(idx, n_bins - 1, out=idx)
    hist = np.bincount(idx, minlength=n_bins)
    total = hist.sum()
    if total == 0:
        return float(initial)
    centers = 0.5 * (edges[:-1] + edges[1:])  # log-space bin centres
    w_cum = np.cumsum(hist)
    mass_cum = np.cumsum(hist * centers)
    mass_total = mass_cum[-1]
    # candidate threshold after each bin: class NG = bins <= k, G = bins > k
    w1 = w_cum[:-1] / total                       # NG weight
    w0 = 1.0 - w1                                 # G weight
    with np.errstate(divide="ignore", invalid="ignore"):
        mu1 = mass_cum[:-1] / np.maximum(w_cum[:-1], 1)
        mu0 = (mass_total - mass_cum[:-1]) / np.maximum(total - w_cum[:-1], 1)
    score = w0 * w1 * (mu0 - mu1) ** 2
    score[~np.isfinite(score)] = -1.0
    k = int(np.argmax(score))
    if score[k] <= 0:
        return float(initial)
    return float(np.exp(edges[k + 1]))


def reference_refresh(history: np.ndarray,
                      config: AirFingerConfig | None = None) -> float | None:
    """``DynamicThresholdSegmenter._refresh_from(history)`` as it was."""
    config = config or AirFingerConfig()
    # Otsu needs both modes (noise and gesture) in view to be
    # meaningful; hold the initial threshold until a second of data has
    # accumulated.
    if history.size < config.sample_rate_hz:
        return None
    # The noise floor is estimated from the 25th percentile: even with a
    # heavy gesture duty cycle most history samples are quiet, so this
    # quantile tracks the noise mode and never creeps up with gestures.
    noise_level = fast_quantile(history, 0.25)
    floor = max(config.threshold_floor_factor * noise_level, 1e-9)
    otsu = otsu_threshold(history,
                          n_bins=config.otsu_bins,
                          initial=config.initial_threshold)
    if otsu > 100.0 * floor:
        # Otsu split inside the gesture mode (e.g. the history holds
        # mostly strong gestures); fall back to the noise-based floor.
        return floor
    return max(otsu, floor)
