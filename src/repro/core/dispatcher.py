"""Distinguishing detect-aimed from track-aimed gestures — Section IV-E.

The paper's rule: when performing a detect-aimed gesture the signal
ascendings of all photodiodes occur almost simultaneously, while a
track-aimed gesture sweeps the array and the ascendings occur in order
(threshold ``I_g``).  On noisy multi-channel RSS the robust expression of
"ascending order" is a small bundle of sweep statistics computed from the
outer photodiodes:

* **centroid lag** — difference of the channels' energy-weighted time
  centroids; equal to the P1→P3 transit for a sweep, near zero for a
  common-mode micro gesture;
* **early-energy fraction** — how much of the *trailing* channel's energy
  falls in the first part of the segment; a sweep leaves the trailing
  channel silent early, a micro gesture excites it immediately;
* **zero-lag correlation, bipolarity, lobe spacing** — auxiliary shape
  descriptors of the differential signal (Fig. 7 of the paper).

The default decision is a fixed two-threshold rule on (centroid lag,
early-energy fraction) plus the partial-scroll test of Section IV-D1.
Because the paper tunes its thresholds "from the collected samples"
(Section V-A), :meth:`GestureDispatcher.calibrate` can additionally fit a
depth-3 decision tree on labelled segments, which is what the evaluation
harness uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.config import AirFingerConfig
from repro.core.sbc import sbc_transform
from repro.ml.tree import DecisionTreeClassifier
from repro.utils import fast_quantile

__all__ = [
    "onset_times",
    "channel_lag_s",
    "SweepStatistics",
    "sweep_statistics",
    "SweepSlice",
    "as_sweep_slice",
    "GestureDispatcher",
]


@functools.lru_cache(maxsize=16)
def _box_kernel(k: int) -> np.ndarray:
    """The ``k``-tap moving-average kernel ``np.ones(k) / k``, built once
    and read-only, as every caller shares it.

    It is symmetric, so ``np.correlate(x, kernel, "same")`` computes
    ``np.convolve(x, kernel, "same")`` bit for bit, without the latter's
    argument handling.
    """
    kernel = np.ones(k) / k
    kernel.flags.writeable = False
    return kernel


def _low_quantile(column: np.ndarray, q: float = 0.1) -> float:
    """``fast_quantile(column, q)`` from one sort of the column.

    A sorted copy hands over the two bracketing order statistics at less
    fixed cost than ``fast_quantile``'s finiteness check and partition.
    Non-finite columns (NaN sorts last, ±inf to the ends) and zero order
    statistics, whose sign a sort and a partition may pick differently,
    take ``fast_quantile`` itself.
    """
    ordered = column.copy()
    ordered.sort()
    ordered = ordered.tolist()
    virtual = q * (len(ordered) - 1)
    lo = int(virtual)
    below, above = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    if (not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1]))
            or below == 0.0 or above == 0.0):
        return fast_quantile(column, q)
    gamma = virtual - lo
    # fast_quantile's (numpy's) monotone lerp
    if gamma >= 0.5:
        return above - (above - below) * (1.0 - gamma)
    return below + (above - below) * gamma


def _ascending_indices(rows: np.ndarray, level: float) -> list[int | None]:
    """Per row of ΔRSS², the first index where it exceeds *level* on two
    consecutive samples, or ``None``.

    A channel counts as ascending only when the excess persists; a
    channel that never clears *level* has no ascending point (the "no
    ascending point" case of Algorithm 1).
    """
    above = rows > level
    both = above[:, 1:] & above[:, :-1]
    if both.shape[1] == 0:
        return [None] * len(rows)
    hit = both.any(axis=1).tolist()
    first = both.argmax(axis=1).tolist()
    return [k if h else None for k, h in zip(first, hit)]


def onset_times(rss_segment: np.ndarray,
                sample_rate_hz: float,
                gate: float,
                sbc_window: int = 1,
                rise_fraction: float = 0.2) -> list[float | None]:
    """Per-channel ascending times (seconds from segment start) or ``None``.

    Parameters
    ----------
    rss_segment:
        Raw RSS of one segmented gesture, ``(T, C)``.
    sample_rate_hz:
        Sampling rate.
    gate:
        Noise gate in ΔRSS² units — channels that never exceed it have no
        ascending point.  The segmenter's dynamic threshold is the natural
        choice.
    sbc_window:
        SBC window in samples.
    rise_fraction:
        Rise level as a fraction of the strongest channel's peak.  One
        common absolute level is used for every channel so that channels
        carrying scaled copies of the same waveform cross it together.
    """
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    rss = np.atleast_2d(np.asarray(rss_segment, dtype=np.float64))
    # one row per channel
    delta = sbc_transform(rss, window=sbc_window).T
    if delta.shape[1] < 2:
        # no two consecutive samples can clear any level
        return [None] * len(delta)
    # short energy smoothing stabilizes the per-channel crossing instants
    if delta.shape[1] >= 3:
        delta = np.array([np.correlate(row, _box_kernel(3), "same")
                          for row in delta])
    level = max(gate, rise_fraction * float(delta.max()))
    return [None if idx is None else idx / sample_rate_hz
            for idx in _ascending_indices(delta, level)]


def channel_lag_s(rss_segment: np.ndarray,
                  sample_rate_hz: float,
                  max_lag_s: float = 0.8,
                  min_correlation: float = 0.25) -> float | None:
    """Cross-correlation lag of the last channel relative to the first.

    Positive lag means the last channel (P3) trails the first (P1).
    Returns ``None`` when either channel is essentially flat or the best
    correlation is too weak to trust.
    """
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    rss = np.atleast_2d(np.asarray(rss_segment, dtype=np.float64))
    n = len(rss)
    if n < 4 or rss.shape[1] < 2:
        return None
    p1 = rss[:, 0] - rss[:, 0].mean()
    p3 = rss[:, -1] - rss[:, -1].mean()
    n1 = float(np.linalg.norm(p1))
    n3 = float(np.linalg.norm(p3))
    if n1 < 1e-9 or n3 < 1e-9:
        return None
    corr = np.correlate(p3, p1, mode="full") / (n1 * n3)
    lags = np.arange(-(n - 1), n)
    limit = min(n - 1, max(1, int(round(max_lag_s * sample_rate_hz))))
    window = (lags >= -limit) & (lags <= limit)
    corr_w = corr[window]
    lags_w = lags[window]
    k = int(np.argmax(corr_w))
    if corr_w[k] < min_correlation:
        return None
    return float(lags_w[k]) / sample_rate_hz


@dataclass(frozen=True)
class SweepStatistics:
    """Sweep descriptors of one segmented gesture's outer photodiodes.

    Attributes
    ----------
    centroid_lag_s:
        Energy-weighted time centroid of P3 minus that of P1; positive for
        a P1→P3 sweep (scroll up), near zero for common-mode gestures.
    early_fraction:
        Fraction of the *trailing* channel's energy inside the first 35%
        of the segment (near zero for a sweep).
    rho_zero:
        Zero-lag normalized correlation of the mean-removed channels.
    bipolarity:
        min(positive, negative) lobe of the differential signal divided by
        the larger channel excursion.
    lobe_spacing_s:
        Time between the differential signal's extreme lobes.
    lobe_order:
        +1 when the positive (P1-dominant) lobe comes first, -1 when the
        negative lobe comes first, 0 when degenerate.
    dominance:
        max/min ratio of the two lobes (large = one-sided difference).
    """

    centroid_lag_s: float
    early_fraction: float
    rho_zero: float
    bipolarity: float
    lobe_spacing_s: float
    lobe_order: int
    dominance: float

    def as_vector(self) -> np.ndarray:
        """Feature vector for the calibrated decision tree."""
        return np.array([
            self.centroid_lag_s,
            abs(self.centroid_lag_s),
            self.early_fraction,
            self.rho_zero,
            self.bipolarity,
            self.lobe_spacing_s,
            float(self.lobe_order),
            min(self.dominance, 100.0),
        ])

    @staticmethod
    def vector_names() -> tuple[str, ...]:
        """Names matching :meth:`as_vector` columns."""
        return ("centroid_lag_s", "abs_centroid_lag_s", "early_fraction",
                "rho_zero", "bipolarity", "lobe_spacing_s", "lobe_order",
                "dominance")


def sweep_statistics(rss_segment: np.ndarray,
                     sample_rate_hz: float,
                     early_window: float = 0.35,
                     smooth_window: int = 5) -> SweepStatistics:
    """Compute :class:`SweepStatistics` for one segmented gesture."""
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    rss = np.atleast_2d(np.asarray(rss_segment, dtype=np.float64))
    n = len(rss)
    if n < 4 or rss.shape[1] < 2:
        return SweepStatistics(0.0, 1.0, 1.0, 0.0, 0.0, 0, 1.0)
    kernel = _box_kernel(min(smooth_window, n))
    x1, x3 = rss[:, 0], rss[:, -1]
    e1 = np.correlate(np.maximum(x1 - _low_quantile(x1), 0.0), kernel, "same")
    e3 = np.correlate(np.maximum(x3 - _low_quantile(x3), 0.0), kernel, "same")
    t = np.arange(n) / sample_rate_hz

    s1, s3 = float(e1.sum()), float(e3.sum())
    if s1 < 1e-9 or s3 < 1e-9:
        centroid_lag = 0.0
        early_fraction = 1.0
    else:
        c1 = float((t * e1).sum() / s1)
        c3 = float((t * e3).sum() / s3)
        centroid_lag = c3 - c1
        trailing, total = (e3, s3) if c3 > c1 else (e1, s1)
        cut = max(1, int(early_window * n))
        early_fraction = float(trailing[:cut].sum() / max(total, 1e-9))

    # sum()/n is mean(), and sqrt(p·p) is np.linalg.norm, bit for bit
    p1 = x1 - x1.sum() / n
    p3 = x3 - x3.sum() / n
    n1, n3 = math.sqrt(p1.dot(p1)), math.sqrt(p3.dot(p3))
    rho_zero = float(p1 @ p3 / (n1 * n3)) if n1 > 1e-9 and n3 > 1e-9 else 1.0

    diff = e1 - e3
    scale = max(float(e1.max()), float(e3.max()), 1e-9)
    i_pos = int(diff.argmax())
    i_neg = int(diff.argmin())
    pos = max(float(diff[i_pos]), 0.0)
    neg = max(-float(diff[i_neg]), 0.0)
    bipolarity = min(pos, neg) / scale
    if pos <= 0 and neg <= 0:
        order = 0
    elif i_pos == i_neg:
        order = 0
    else:
        order = +1 if i_pos < i_neg else -1
    dominance = (max(pos, neg) / min(pos, neg)) if min(pos, neg) > 1e-12 else 100.0
    return SweepStatistics(
        centroid_lag_s=centroid_lag,
        early_fraction=early_fraction,
        rho_zero=rho_zero,
        bipolarity=bipolarity,
        lobe_spacing_s=abs(i_pos - i_neg) / sample_rate_hz,
        lobe_order=order,
        dominance=dominance)


class SweepSlice:
    """One segment slice ``(T, C)`` as float64, with its sweep statistics
    and onsets computed at most once.

    The engine hands one slice to both :meth:`GestureDispatcher.classify`
    and :meth:`ZebraTracker.track <repro.core.zebra.ZebraTracker.track>`,
    so a track decision does not recompute what the dispatch decision
    already knows.  Both also accept plain arrays, and ``np.asarray``
    turns a slice back into its array.
    """

    __slots__ = ("rss", "_memo")

    def __init__(self, rss_segment) -> None:
        self.rss = np.atleast_2d(np.asarray(rss_segment, dtype=np.float64))
        self._memo: dict = {}

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.rss, dtype=dtype, copy=copy)

    def statistics(self, sample_rate_hz: float) -> SweepStatistics:
        """:func:`sweep_statistics` of the slice."""
        key = ("sweep", sample_rate_hz)
        if key not in self._memo:
            self._memo[key] = sweep_statistics(self.rss, sample_rate_hz)
        return self._memo[key]

    def onsets(self, sample_rate_hz: float, gate: float,
               sbc_window: int) -> tuple[float | None, ...]:
        """:func:`onset_times` of the slice, as a tuple."""
        key = ("onsets", sample_rate_hz, gate, sbc_window)
        if key not in self._memo:
            self._memo[key] = tuple(onset_times(
                self.rss, sample_rate_hz, gate, sbc_window=sbc_window))
        return self._memo[key]


def as_sweep_slice(rss_segment) -> SweepSlice:
    """*rss_segment* itself when it already is a :class:`SweepSlice`."""
    if isinstance(rss_segment, SweepSlice):
        return rss_segment
    return SweepSlice(rss_segment)


@dataclass
class GestureDispatcher:
    """Routes a segmented gesture to detection or tracking.

    Parameters
    ----------
    config:
        Timing parameters (``I_g``, SBC window, sample rate).
    centroid_threshold_s:
        Minimum |centroid lag| for the full-sweep decision.
    early_fraction_threshold:
        Maximum trailing-channel early-energy fraction for a full sweep.
    partial_centroid_threshold_s, partial_early_threshold:
        The relaxed lag plus near-zero early-energy condition that catches
        partial scrolls (Section IV-D1), whose centroids barely separate.
    partial_dominance:
        One-sidedness ratio above which a lone-outer-onset segment counts
        as a partial scroll (the onset-based fallback).
    """

    config: AirFingerConfig = field(default_factory=AirFingerConfig)
    centroid_threshold_s: float = 0.08
    early_fraction_threshold: float = 0.13
    partial_centroid_threshold_s: float = 0.03
    partial_early_threshold: float = 0.03
    partial_dominance: float = 6.0

    _tree: DecisionTreeClassifier | None = field(init=False, repr=False,
                                                 default=None)

    # ------------------------------------------------------------------
    def statistics(self, rss_segment) -> SweepStatistics:
        """Sweep statistics of one segment (also the calibration features)."""
        return as_sweep_slice(rss_segment).statistics(
            self.config.sample_rate_hz)

    def _partial_scroll(self, segment: SweepSlice, gate: float,
                        stats: SweepStatistics) -> bool:
        # a two-sided difference is no partial scroll, whatever its onsets
        if not stats.dominance >= self.partial_dominance:
            return False
        times = segment.onsets(self.config.sample_rate_hz, gate,
                               self.config.sbc_window_samples)
        ascending = [i for i, t in enumerate(times) if t is not None]
        return len(ascending) == 1 and ascending[0] in (0, len(times) - 1)

    def classify(self, rss_segment, gate: float) -> str:
        """Return ``"detect"`` or ``"track"`` for one segmented gesture.

        *rss_segment* is a ``(T, C)`` array or a :class:`SweepSlice`.
        """
        segment = as_sweep_slice(rss_segment)
        stats = segment.statistics(self.config.sample_rate_hz)
        if self._tree is not None:
            label = self._tree.predict(stats.as_vector()[None, :])[0]
            if str(label) == "track":
                return "track"
            if self._partial_scroll(segment, gate, stats):
                return "track"
            return "detect"
        if (abs(stats.centroid_lag_s) > self.centroid_threshold_s
                and stats.early_fraction < self.early_fraction_threshold
                and stats.lobe_spacing_s >= self.config.dispatch_threshold_s):
            return "track"
        # Partial scrolls (Section IV-D1) barely separate the centroids —
        # the finger only crosses one outer zone — but they are the only
        # gestures whose trailing channel is *completely* silent early.
        if (abs(stats.centroid_lag_s) > self.partial_centroid_threshold_s
                and stats.early_fraction < self.partial_early_threshold):
            return "track"
        if self._partial_scroll(segment, gate, stats):
            return "track"
        return "detect"

    # ------------------------------------------------------------------
    def calibrate(self, segments: Sequence[np.ndarray],
                  labels: Sequence[str]) -> "GestureDispatcher":
        """Learn the decision thresholds from labelled segments.

        Mirrors the paper's Section V-A: "These settings are learned from
        the collected samples."  Fits a depth-3 decision tree over the
        sweep statistics; labels must be ``"detect"`` / ``"track"``.
        """
        if len(segments) != len(labels):
            raise ValueError(f"{len(segments)} segments but {len(labels)} labels")
        wrong = sorted({l for l in labels if l not in ("detect", "track")})
        if wrong:
            raise ValueError(f"labels must be 'detect'/'track', got {wrong}")
        X = np.stack([self.statistics(s).as_vector() for s in segments])
        tree = DecisionTreeClassifier(max_depth=3, min_samples_leaf=3,
                                      random_state=5)
        tree.fit(X, np.asarray(labels))
        self._tree = tree
        return self

    @property
    def is_calibrated(self) -> bool:
        """True once :meth:`calibrate` has fitted the decision tree."""
        return self._tree is not None
