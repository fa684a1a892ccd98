"""The parent engine's sweep statistics, onsets, classify and track.

These are the implementations the engine ran before the live-dispatch
memo and the leaner sweep/onset math, kept verbatim as the reference
the property test (``tests/property/test_property_dispatch.py``) holds
today's :mod:`repro.core.dispatcher` and :mod:`repro.core.zebra` to, bit
for bit.  Only the imports and the two ``reference_*`` wrappers around
the method bodies are new.
"""

from __future__ import annotations

import numpy as np

from repro.core.dispatcher import SweepStatistics
from repro.core.sbc import sbc_transform
from repro.core.zebra import TrackResult
from repro.utils import fast_quantile


def _ascending_index(delta_sq: np.ndarray, level: float,
                     confirm: int = 2) -> int | None:
    """First index where the channel's ΔRSS² exceeds *level* persistently.

    A channel counts as ascending when it exceeds *level* for *confirm*
    consecutive samples; a channel whose peak never clears it returns
    ``None`` (the "no ascending point" case of Algorithm 1).
    """
    delta_sq = np.asarray(delta_sq, dtype=np.float64).ravel()
    if delta_sq.size == 0:
        return None
    if float(delta_sq.max()) <= level:
        return None
    above = delta_sq > level
    if confirm <= 1:
        hits = np.nonzero(above)[0]
        return int(hits[0]) if hits.size else None
    run = 0
    for i, flag in enumerate(above):
        run = run + 1 if flag else 0
        if run >= confirm:
            return i - confirm + 1
    return None


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
    delta = sbc_transform(rss, window=sbc_window)
    # short energy smoothing stabilizes the per-channel crossing instants
    if len(delta) >= 3:
        kernel = np.ones(3) / 3.0
        delta = np.stack(
            [np.convolve(delta[:, c], kernel, mode="same")
             for c in range(delta.shape[1])], axis=1)
    peak = float(delta.max()) if delta.size else 0.0
    level = max(gate, rise_fraction * peak)
    out: list[float | None] = []
    for c in range(delta.shape[1]):
        idx = _ascending_index(delta[:, c], level)
        out.append(None if idx is None else idx / sample_rate_hz)
    return out


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
    k = min(smooth_window, n)
    kernel = np.ones(k) / k
    e1 = np.convolve(np.maximum(
        rss[:, 0] - fast_quantile(rss[:, 0], 0.1), 0.0), kernel, "same")
    e3 = np.convolve(np.maximum(
        rss[:, -1] - fast_quantile(rss[:, -1], 0.1), 0.0), kernel, "same")
    t = np.arange(n) / sample_rate_hz

    s1, s3 = float(e1.sum()), float(e3.sum())
    if s1 < 1e-9 or s3 < 1e-9:
        centroid_lag = 0.0
        early_fraction = 1.0
    else:
        c1 = float((t * e1).sum() / s1)
        c3 = float((t * e3).sum() / s3)
        centroid_lag = c3 - c1
        trailing = e3 if c3 > c1 else e1
        cut = max(1, int(early_window * n))
        early_fraction = float(trailing[:cut].sum() / max(trailing.sum(), 1e-9))

    p1 = rss[:, 0] - rss[:, 0].mean()
    p3 = rss[:, -1] - rss[:, -1].mean()
    n1, n3 = float(np.linalg.norm(p1)), float(np.linalg.norm(p3))
    rho_zero = float(p1 @ p3 / (n1 * n3)) if n1 > 1e-9 and n3 > 1e-9 else 1.0

    diff = e1 - e3
    scale = float(max(e1.max(), e3.max(), 1e-9))
    i_pos = int(np.argmax(diff))
    i_neg = int(np.argmin(diff))
    pos = float(max(diff[i_pos], 0.0))
    neg = float(max(-diff[i_neg], 0.0))
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


def _partial_scroll(self, rss_segment: np.ndarray, gate: float,
                    stats: SweepStatistics) -> bool:
    times = onset_times(rss_segment, self.config.sample_rate_hz, gate,
                        sbc_window=self.config.sbc_window_samples)
    ascending = [i for i, t in enumerate(times) if t is not None]
    lone_outer = (len(ascending) == 1
                  and ascending[0] in (0, len(times) - 1))
    return lone_outer and stats.dominance >= self.partial_dominance


def reference_classify(self, rss_segment: np.ndarray, gate: float) -> str:
    """The parent ``GestureDispatcher.classify`` body, *self* a
    dispatcher."""
    stats = sweep_statistics(rss_segment, self.config.sample_rate_hz)
    if self._tree is not None:
        label = self._tree.predict(stats.as_vector()[None, :])[0]
        if str(label) == "track":
            return "track"
        if _partial_scroll(self, rss_segment, gate, stats):
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
    if _partial_scroll(self, rss_segment, gate, stats):
        return "track"
    return "detect"


def reference_track(self, rss_segment: np.ndarray,
                    gate: float) -> TrackResult:
    """The parent ``ZebraTracker.track`` body, *self* a tracker."""
    rss = np.atleast_2d(np.asarray(rss_segment, dtype=np.float64))
    n, c = rss.shape
    if c < 2:
        raise ValueError("ZEBRA needs at least two photodiode channels")
    duration_s = n / self.config.sample_rate_hz
    onsets = onset_times(rss, self.config.sample_rate_hz, gate,
                         sbc_window=self.config.sbc_window_samples)
    t1 = onsets[0]      # P1
    t3 = onsets[-1]     # P3
    v_default = self.config.default_scroll_speed_mm_s

    # Full sweeps first (lines 8-13 / 20-25): when both outer zones were
    # genuinely excited, the energy-weighted time centroids of P1 and P3
    # sit where the finger passed each zone, so their lag gives both the
    # ascending order (α) and Δt.  This is more reliable than raw onset
    # presence — a minimum-jerk scroll starts slowly, so the first
    # photodiode's level crossing is sometimes missed entirely.
    stats = sweep_statistics(rss, self.config.sample_rate_hz)
    if stats.bipolarity > 0.05 and abs(stats.centroid_lag_s) > 1e-9:
        delta_t = abs(stats.centroid_lag_s)
        direction = +1 if stats.centroid_lag_s > 0 else -1
        velocity = self.baseline_mm / delta_t
        return TrackResult(direction, velocity, duration_s, delta_t,
                           False, tuple(onsets))
    if t1 is not None and t3 is None:
        # lines 2-7: only P1 ascends -> scroll up at experience speed
        return TrackResult(+1, v_default, duration_s, None, True,
                           tuple(onsets))
    if t3 is not None and t1 is None:
        # lines 14-19: only P3 ascends -> scroll down at experience speed
        return TrackResult(-1, v_default, duration_s, None, True,
                           tuple(onsets))
    if t1 is not None and t3 is not None and abs(t3 - t1) > 1e-9:
        delta_t = abs(t3 - t1)
        velocity = self.baseline_mm / delta_t
        return TrackResult(+1 if t1 < t3 else -1, velocity, duration_s,
                           delta_t, False, tuple(onsets))
    # one-sided difference without a usable Δt: direction from the
    # lobe order, experience speed v'
    if stats.lobe_order > 0:
        return TrackResult(+1, v_default, duration_s, None, True,
                           tuple(onsets))
    if stats.lobe_order < 0:
        return TrackResult(-1, v_default, duration_s, None, True,
                           tuple(onsets))
    return TrackResult(0, v_default, duration_s, None, True, tuple(onsets))
