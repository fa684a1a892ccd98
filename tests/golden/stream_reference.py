"""The parent engine's scalar ingestion path and eager channel-guard check.

:class:`~repro.core.pipeline.AirFinger` once had two ingestion paths:
the per-frame ``feed`` below and the block path, which handed gaps,
stale frames, ragged lists, channel-count changes and tracing back to
it.  ``feed`` is now a one-frame ``feed_block``, so this module keeps
the per-frame engine — ``feed``, ``_feed``, ``_ingest``, ``_handle_gap``,
``_guard_frame`` and ``ChannelGuard.push``'s eager window check — as the
independent reference the block path is held to: the golden stream
traces, the block-mode property suite and the boundary tests compare
against it.  The method bodies are the parent's, verbatim; only the
imports, the two subclasses, the guard class ``_guard_frame`` builds,
the explicit live-update arguments (the engine no longer reads the live
segmenter for them), :meth:`ReferenceAirFinger.feed_block`,
:meth:`ReferenceAirFinger.__post_init__` (the stage histograms ``_ingest``
books into, taken from the engine's stage table, the tracing decision
the engine's stage clock reads, and the history deques),
:meth:`ReferenceAirFinger.reset` and :func:`books` are new, and
``_ingest`` sums the channels with an explicit left fold from 0.0 where
it called ``sum()``: CPython 3.12 compensates ``sum()``, and the fold is
what 3.11 computed and what the engine does.
The segment handlers (``_handle_segment``, ``_maybe_live_update``) are
the engine's own; the dispatch goldens pin them.  The history they slice
is the parent's: ``_raw`` and ``_delta`` deques with the parent's
``_frame_prefilter``, ``_history_offset``, ``_slice_raw`` and
``_slice_delta``, where the engine keeps numpy rings; the engine's
``_history`` reads either.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from time import perf_counter

import numpy as np

from repro.acquisition.stream import FrameBlock, RssFrame
from repro.core.calibration import ChannelGuard
from repro.core.events import ChannelMaskEvent, StreamGap
from repro.core.pipeline import AirFinger
from repro.core.sbc import StreamingMovingAverage
from repro.obs import get_stage_profile


class ReferenceChannelGuard(ChannelGuard):
    """:class:`ChannelGuard` judging each check's window eagerly, one
    frame at a time."""

    def push(self, values: tuple[float, ...]) -> list[tuple[int, bool, str]]:
        """Ingest one raw frame; returns mask transitions, if any.

        Each transition is ``(channel, masked, reason)`` with reason
        ``"flat"``/``"saturated"`` on masking and ``"recovered"`` on
        unmasking.  Between checks this is one ring-row write and a
        compare — cheap enough for the 100 Hz hot path.
        """
        if len(values) != self.n_channels:
            raise ValueError(
                f"frame has {len(values)} channels, guard has "
                f"{self.n_channels}")
        self._ring[self._ring_pos] = values
        self._ring_pos = (self._ring_pos + 1) % self.window
        if self._ring_len < self.window:
            self._ring_len += 1
        self._since_check += 1
        if (self._since_check < self.check_every
                or self._ring_len < self.window):
            return []
        self._since_check = 0
        window = self.window_rows()
        transitions: list[tuple[int, bool, str]] = []
        for c in range(self.n_channels):
            column = window[:, c]
            change = self._judge(c, self._verdict(column))
            if change is not None:
                transitions.append((c, *change))
            elif not self._masked[c]:
                # remember the healthy level so a masked channel can be
                # replaced by its own recent past, not by zero
                self._hold[c] = float(np.median(column))
                self._hold_window[c] = None
        return transitions

    def _verdict(self, values: np.ndarray) -> str:
        # saturation first: a hard pin at the top code is also flat, but
        # the rail is the more specific diagnosis
        if np.mean(values >= self.adc.full_scale) > self.max_high_rail:
            return "saturated"
        if np.mean(np.diff(values) == 0.0) > self.max_flat_fraction:
            return "flat"
        return ""


class ReferenceAirFinger(AirFinger):
    """:class:`AirFinger` ingesting through the per-frame path."""

    def __post_init__(self) -> None:
        super().__post_init__()
        # the two stage histograms the per-frame path books into, from
        # the engine's stage table; the engine decides per call whether
        # its stage clock traces, this per-frame path once
        self._h_prefilter = self._h_stage["prefilter_sbc"]
        self._h_segmentation = self._h_stage["segmentation"]
        self._traced = self._tr.active
        self._new_history()

    def reset(self) -> None:
        super().reset()
        self._new_history()

    def _new_history(self) -> None:
        self._raw = deque(maxlen=self._history_len)
        self._delta = deque(maxlen=self._history_len)

    def _frame_prefilter(self, n_channels: int) -> StreamingMovingAverage:
        """The prefilter for *n_channels*-wide frames, rebuilt (empty) on
        the first frame and whenever the channel count changes."""
        if (self._prefilter is None
                or self._prefilter.channels != n_channels):
            self._prefilter = StreamingMovingAverage(
                self.config.prefilter_samples, channels=n_channels)
        return self._prefilter

    def _history_offset(self) -> int:
        return self._pos - len(self._raw)

    def _slice_raw(self, start: int, end: int) -> np.ndarray:
        offset = self._history_offset()
        lo = max(start - offset, 0)
        hi = min(end - offset, len(self._raw))
        if hi <= lo:
            return np.zeros((0, 0))
        rows = list(self._raw)[lo:hi]
        return np.asarray(rows, dtype=np.float64)

    def _slice_delta(self, start: int, end: int) -> np.ndarray:
        offset = self._history_offset()
        lo = max(start - offset, 0)
        hi = min(end - offset, len(self._delta))
        if hi <= lo:
            return np.zeros(0)
        return np.asarray(list(self._delta)[lo:hi], dtype=np.float64)

    def feed(self, frame: RssFrame) -> list:
        """Ingest one frame; returns the events it triggered.

        The stored history and everything downstream (segmentation, onset
        analysis, features) operate on the prefiltered RSS.  Imperfect
        streams degrade instead of derailing: a short index gap is bridged
        by linear interpolation, a long one flushes the segmenter and
        yields a :class:`StreamGap`, and a channel the health guard
        declares dead or saturated is held at its last healthy level until
        it recovers (:class:`ChannelMaskEvent` marks both transitions).
        """
        if self._tr.active:
            with self._tr.span("pipeline.frame", index=self._fed) as span:
                return self._feed(frame, span)
        return self._feed(frame, None)

    def _feed(self, frame: RssFrame, span) -> list:
        t_start = perf_counter()
        stage_s = self._stage_s
        stage_s.clear()
        events: list = []

        if self._anchor is None:
            self._anchor = frame.index
        gap = (frame.index - self._anchor) - self._pos
        if gap > 0:
            events.extend(self._handle_gap(gap, frame, span))
        elif gap < 0:
            # an index from the past: its slot has already been filled (by
            # a real or interpolated sample), so rewinding history is
            # impossible and ingesting it would desync every later frame —
            # count it and drop it
            self._c_out_of_order.inc()
            if span is not None:
                span.add_event("out_of_order", frame_index=frame.index,
                               expected=self._pos + self._anchor)
            return events

        values = frame.values
        if self.channel_guard:
            events.extend(self._guard_frame(frame, span))
            if self._guard is not None and self._guard.any_masked:
                values = tuple(
                    self._hold[c] if masked else v
                    for c, (v, masked) in enumerate(
                        zip(values, self._guard.mask)))
        self._last_values = values

        events.extend(self._ingest(values, frame.time_s, span))
        self._fed += 1

        frame_s = perf_counter() - t_start
        self._h_frame.observe(frame_s)
        self._c_frames.inc()
        if frame_s > self._deadline_s:
            self._c_deadline.inc()
            if span is not None:
                slowest = max(stage_s, key=stage_s.get) if stage_s else "?"
                span.add_event(
                    "deadline_miss", stage=slowest,
                    frame_index=self._fed - 1, frame_s=frame_s,
                    deadline_s=self._deadline_s)
        # Continuous profiling re-uses the stage splits measured above —
        # when off this is one global read + None check per frame.
        prof = get_stage_profile()
        if prof is not None:
            prof.add_frame("pipeline.frame", frame_s, stage_s)
        return events

    def _ingest(self, values: tuple[float, ...], time_s: float,
                span) -> list:
        """One sample through prefilter → SBC → segmentation → handlers."""
        t_start = perf_counter()
        filtered = self._frame_prefilter(len(values)).push(values)
        self._raw.append(filtered)
        self._last_time_s = time_s
        combined = float(functools.reduce(operator.add, filtered, 0.0))
        delta = self._combined_sbc.push(combined)
        self._delta.append(delta)
        self._pos += 1
        t_prefilter = perf_counter()
        self._stage_s["prefilter_sbc"] = (
            self._stage_s.get("prefilter_sbc", 0.0) + t_prefilter - t_start)
        self._h_prefilter.observe(t_prefilter - t_start)

        events: list = []
        finished = self._segmenter.push(delta)
        t_segmentation = perf_counter()
        self._stage_s["segmentation"] = (
            self._stage_s.get("segmentation", 0.0)
            + t_segmentation - t_prefilter)
        self._h_segmentation.observe(t_segmentation - t_prefilter)
        if span is not None:
            self._tr.record("pipeline.stage", t_start, t_prefilter,
                            stage="prefilter_sbc")
            self._tr.record("pipeline.stage", t_prefilter, t_segmentation,
                            stage="segmentation")
        if finished is not None:
            events.extend(self._handle_segment(finished))
            self._live_track_open = False
            # a fresh gesture must not inherit the previous one's live
            # phase; restart the cadence at the next segment opening
            self._live_cooldown = 0
        elif self.live_update_every:
            live = self._maybe_live_update(self._segmenter.open_start,
                                               self._segmenter.threshold)
            if live is not None:
                events.append(live)
                self._c_ev_live.inc()
        return events

    def _handle_gap(self, gap: int, frame: RssFrame, span) -> list:
        """Bridge or reset over *gap* missing stream positions."""
        events: list = []
        if gap <= self.config.max_gap_samples and self._last_values is not None:
            last = self._last_values
            rate = self.config.sample_rate_hz
            for k in range(gap):
                frac = (k + 1) / (gap + 1)
                values = tuple(a + frac * (b - a)
                               for a, b in zip(last, frame.values))
                time_s = frame.time_s - (gap - k) / rate
                events.extend(self._ingest(values, time_s, span))
            self._c_gap_interp.inc(gap)
            if span is not None:
                span.add_event("gap_interpolated", n_missing=gap,
                               start=self._pos - gap)
            return events
        # too long to invent data for: flush in-flight state, jump ahead
        start = self._pos
        tail = self._segmenter.discontinuity(gap)
        if tail is not None:
            events.extend(self._handle_segment(tail))
        self._combined_sbc.reset()
        self._prefilter = None
        self._raw.clear()
        self._delta.clear()
        if self._guard is not None:
            self._guard.clear_window()
        self._live_track_open = False
        self._live_cooldown = 0
        self._pos += gap
        events.append(StreamGap(
            start_index=start, end_index=self._pos,
            duration_s=gap / self.config.sample_rate_hz,
            time_s=frame.time_s))
        self._c_gap_reset.inc()
        if span is not None:
            span.add_event("stream_gap", n_missing=gap, start=start)
        return events

    def _guard_frame(self, frame: RssFrame, span) -> list:
        """Run the channel health guard; returns mask-transition events."""
        if self._guard is None:
            self._guard = ReferenceChannelGuard(
                n_channels=len(frame.values),
                window=self.config.guard_window_samples,
                check_every=self.config.guard_check_every_samples,
                recovery_checks=self.config.guard_recovery_checks)
            self._hold = [0.0] * len(frame.values)
        transitions = self._guard.push(frame.values)
        if not transitions:
            return []
        events: list = []
        for channel, masked, reason in transitions:
            if masked:
                self._hold[channel] = self._guard.hold_value(channel)
                self._c_mask.inc()
            else:
                self._c_unmask.inc()
            # the combined signal steps when a channel's contribution is
            # swapped for the held level; restart SBC so the step does not
            # masquerade as gesture energy
            self._combined_sbc.reset()
            events.append(ChannelMaskEvent(
                channel=channel, masked=masked, reason=reason,
                index=self._pos, time_s=frame.time_s))
            if span is not None:
                span.add_event("channel_mask", channel=channel,
                               masked=masked, reason=reason)
        return events

    def feed_block(self, frames) -> list:
        """Per-frame :meth:`feed` over *frames* (no block path)."""
        if isinstance(frames, FrameBlock):
            frames = frames.frames()
        return [event for frame in frames for event in self.feed(frame)]


def books(registry) -> tuple[dict, dict]:
    """What an engine booked on *registry*: counter values and histogram
    sample counts.  The deadline counter is left out: the reference
    counts late frames, the engine late calls."""
    snapshot = registry.snapshot()
    counters = {key: value for key, value in snapshot.counters.items()
                if not key.startswith("pipeline.deadline_miss")}
    counts = {key: data["count"]
              for key, data in snapshot.histograms.items()}
    return counters, counts
