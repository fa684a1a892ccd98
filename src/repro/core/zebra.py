"""The ZEBRA tracking algorithm (Algorithm 1, Section IV-D).

ZEBRA turns the ordered signal-ascending points of the outer photodiodes
(P1, P3) into the three tracked quantities of a scroll:

* **direction** ``α``: P1 ascends first (or alone) → scroll up (+1);
  P3 first (or alone) → scroll down (-1);
* **velocity** ``v``: the physical P1-P3 baseline divided by the onset
  time difference ``Δt`` (the paper states "velocity is proportional to
  Δt" loosely; physically the fixed baseline over Δt gives mm/s).  When
  only one outer photodiode ascends, Δt is incalculable and the experience
  value ``v' = 80 mm/s`` is used;
* **displacement** ``D_t = α · v · min(t, T)`` with ``T`` the gesture's
  total duration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import AirFingerConfig
from repro.core.dispatcher import _ascending_indices, as_sweep_slice

__all__ = ["find_ascending_point", "TrackResult", "ZebraTracker"]


def find_ascending_point(delta_sq: np.ndarray, level: float,
                         sample_rate_hz: float) -> float | None:
    """Ascending time (s) of one channel's ΔRSS², or None below *level*."""
    row = np.asarray(delta_sq, dtype=np.float64).reshape(1, -1)
    idx = _ascending_indices(row, level)[0]
    return None if idx is None else idx / sample_rate_hz


@dataclass(frozen=True)
class TrackResult:
    """Output of ZEBRA for one track-aimed gesture.

    Parameters
    ----------
    direction:
        +1 (scroll up), -1 (scroll down), or 0 when undecidable.
    velocity_mm_s:
        Estimated scroll speed.
    duration_s:
        ``T``, the gesture's total duration.
    delta_t_s:
        Onset time difference between P1 and P3 (None if incalculable).
    used_default_speed:
        True when the experience value ``v'`` was substituted.
    onsets_s:
        Per-channel ascending times relative to segment start.
    """

    direction: int
    velocity_mm_s: float
    duration_s: float
    delta_t_s: float | None
    used_default_speed: bool
    onsets_s: tuple

    @property
    def direction_name(self) -> str:
        """``"scroll_up"``, ``"scroll_down"`` or ``"unknown"``."""
        if self.direction > 0:
            return "scroll_up"
        if self.direction < 0:
            return "scroll_down"
        return "unknown"

    def displacement_at(self, t_s: float) -> float:
        """``D_t = α · v · min(t, T)`` in millimetres (signed)."""
        if t_s < 0:
            raise ValueError(f"t_s must be non-negative, got {t_s}")
        return self.direction * self.velocity_mm_s * min(t_s, self.duration_s)

    @property
    def total_displacement_mm(self) -> float:
        """Signed displacement at the end of the gesture."""
        return self.displacement_at(self.duration_s)


@dataclass(frozen=True)
class ZebraTracker:
    """Applies Algorithm 1 to a segmented multi-channel gesture.

    Parameters
    ----------
    config:
        Timing parameters and the experience speed ``v'``.
    baseline_mm:
        Physical distance between the outer photodiodes P1 and P3
        (``SensorArray.scroll_axis_span_mm()``; 24 mm for the default
        6 mm-pitch five-element board).
    """

    config: AirFingerConfig = AirFingerConfig()
    baseline_mm: float = 24.0

    def __post_init__(self) -> None:
        if self.baseline_mm <= 0:
            raise ValueError("baseline_mm must be positive")

    def track(self, rss_segment, gate: float) -> TrackResult:
        """Run ZEBRA on one segmented gesture's raw RSS ``(T, C)``.

        The first and last channels are taken as P1 and P3 (the board's
        outer photodiodes).  *rss_segment* may be the
        :class:`~repro.core.dispatcher.SweepSlice` the dispatcher already
        classified, whose sweep statistics and onsets are then reused.
        """
        segment = as_sweep_slice(rss_segment)
        n, c = segment.rss.shape
        if c < 2:
            raise ValueError("ZEBRA needs at least two photodiode channels")
        duration_s = n / self.config.sample_rate_hz
        onsets = segment.onsets(self.config.sample_rate_hz, gate,
                                self.config.sbc_window_samples)
        t1 = onsets[0]      # P1
        t3 = onsets[-1]     # P3
        v_default = self.config.default_scroll_speed_mm_s

        # Full sweeps first (lines 8-13 / 20-25): when both outer zones were
        # genuinely excited, the energy-weighted time centroids of P1 and P3
        # sit where the finger passed each zone, so their lag gives both the
        # ascending order (α) and Δt.  This is more reliable than raw onset
        # presence — a minimum-jerk scroll starts slowly, so the first
        # photodiode's level crossing is sometimes missed entirely.
        stats = segment.statistics(self.config.sample_rate_hz)
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

    def displacement_profile(self, result: TrackResult,
                             n_points: int = 50) -> np.ndarray:
        """``(n_points, 2)`` array of ``(t, D_t)`` samples over the gesture."""
        if n_points < 2:
            raise ValueError("n_points must be >= 2")
        ts = np.linspace(0.0, result.duration_s, n_points)
        return np.stack(
            [ts, [result.displacement_at(float(t)) for t in ts]], axis=1)
