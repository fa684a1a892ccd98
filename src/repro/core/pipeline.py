"""The real-time airFinger engine: frames in, recognition events out.

This module wires the whole Fig. 4 data flow together for streaming use:
each :class:`~repro.acquisition.stream.RssFrame` is pushed through SBC and
the dynamic-threshold segmenter; when a gesture segment closes, the
dispatcher routes it either through the interference filter + detect-aimed
recognizer (emitting a :class:`~repro.core.events.GestureEvent`) or through
ZEBRA (emitting a final :class:`~repro.core.events.ScrollUpdate`).  While a
track-aimed gesture is still in progress the engine emits live
``ScrollUpdate`` events, reproducing the paper's claim that scroll
direction is identified "in real-time, without waiting for the end of this
gesture".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.acquisition.sampler import Recording
from repro.acquisition.stream import (
    FrameBlock,
    RssFrame,
    stream_blocks,
    stream_frames,
)
from repro.core.calibration import ChannelGuard
from repro.core.config import AirFingerConfig
from repro.core.detector import DetectAimedRecognizer
from repro.core.dispatcher import GestureDispatcher, SweepSlice
from repro.core.events import (
    ChannelMaskEvent,
    GestureEvent,
    ScrollUpdate,
    SegmentEvent,
    StreamGap,
)
from repro.core.interference import InterferenceFilter
from repro.core.sbc import (
    StreamingMovingAverage,
    StreamingSbc,
    prefilter,
    sbc_transform,
)
from repro.core.segmentation import DynamicThresholdSegmenter, Segment
from repro.core.zebra import ZebraTracker
from repro.obs import (MetricsRegistry, Tracer, get_registry,
                       get_stage_profile, get_tracer)

__all__ = ["AirFinger", "DEFAULT_BLOCK_SIZE"]

#: Default batch length for block-mode replay (``feed_recording`` et al.).
#: Big enough to amortize numpy dispatch, small enough that event latency
#: stays a fraction of a second at the paper's 100 Hz rate.
DEFAULT_BLOCK_SIZE = 256

_UNSET = object()


@dataclass
class AirFinger:
    """The end-to-end streaming recognizer.

    Parameters
    ----------
    config:
        Stack configuration (paper defaults).
    detector:
        A fitted :class:`DetectAimedRecognizer`; without one, detect-aimed
        segments still produce :class:`SegmentEvent` but no gesture label.
    interference_filter:
        Optional fitted gesture/non-gesture filter applied before the
        detector.
    tracker:
        ZEBRA tracker; constructed from the config when omitted.
    live_update_every:
        Emit a live ScrollUpdate every this many frames while a track-aimed
        gesture is open (0 disables live updates).
    gate_fraction:
        Per-channel onset gate as a fraction of the combined-signal
        segmentation threshold (channels are quieter individually than the
        channel sum).
    channel_guard:
        Run the streaming :class:`~repro.core.calibration.ChannelGuard`
        on every frame: a channel that goes flat or pins at the top rail
        is masked out of the combined RSS (its last healthy level is held
        instead) and restored only after the recovery hysteresis — a
        :class:`~repro.core.events.ChannelMaskEvent` marks each
        transition.  On a clean stream the guard never fires and the
        output is bit-identical to running without it.
    metrics:
        Metrics registry for per-stage latency, event counters and the
        100 Hz deadline-miss counter; defaults to the process-global
        registry (:func:`repro.obs.get_registry`).  Disable process-wide
        with ``REPRO_OBS=0``.
    tracer:
        Span tracer; when sampling is on (``REPRO_TRACE``), every frame
        becomes a ``pipeline.frame`` span with per-stage child spans, and
        a deadline miss adds a ``deadline_miss`` span event naming the
        offending stage.  Defaults to the process-global tracer
        (:func:`repro.obs.get_tracer`).
    """

    config: AirFingerConfig = field(default_factory=AirFingerConfig)
    detector: DetectAimedRecognizer | None = None
    interference_filter: InterferenceFilter | None = None
    tracker: ZebraTracker | None = None
    live_update_every: int = 5
    gate_fraction: float = 0.35
    channel_guard: bool = True
    metrics: MetricsRegistry | None = None
    tracer: Tracer | None = None

    def __post_init__(self) -> None:
        if self.live_update_every < 0:
            raise ValueError("live_update_every must be >= 0")
        if not 0.0 < self.gate_fraction <= 1.0:
            raise ValueError("gate_fraction must be in (0, 1]")
        if self.tracker is None:
            self.tracker = ZebraTracker(config=self.config)
        self._segmenter = DynamicThresholdSegmenter(self.config)
        self._dispatcher = GestureDispatcher(self.config)
        self._combined_sbc = StreamingSbc(self.config.sbc_window_samples)
        self._prefilter: StreamingMovingAverage | None = None
        history = (self.config.max_segment_samples
                   + 2 * self.config.cluster_gap_samples + 64)
        self._raw: deque[tuple[float, ...]] = deque(maxlen=history)
        self._delta: deque[float] = deque(maxlen=history)
        self._fed = 0
        self._last_time_s = 0.0
        self._live_cooldown = 0
        self._live_track_open = False
        # degradation state: frame indices are anchored on the first frame
        # seen, so windowed replays and resumed streams start at position 0
        self._anchor: int | None = None
        self._pos = 0
        self._last_values: tuple[float, ...] | None = None
        self._guard: ChannelGuard | None = None
        self._hold: list[float] = []
        # metric handles are resolved once; feed() only pays record calls
        m = self.metrics if self.metrics is not None else get_registry()
        self._tr = self.tracer if self.tracer is not None else get_tracer()
        self._stage_s: dict[str, float] = {}
        self._deadline_s = 1.0 / self.config.sample_rate_hz
        self._h_frame = m.histogram("pipeline.frame_seconds")
        self._h_prefilter = m.histogram("pipeline.stage_seconds",
                                        stage="prefilter_sbc")
        self._h_segmentation = m.histogram("pipeline.stage_seconds",
                                           stage="segmentation")
        self._h_dispatch = m.histogram("pipeline.stage_seconds",
                                       stage="dispatch")
        self._h_tracking = m.histogram("pipeline.stage_seconds",
                                       stage="tracking")
        self._h_detection = m.histogram("pipeline.stage_seconds",
                                        stage="detection")
        self._c_frames = m.counter("pipeline.frames")
        self._c_deadline = m.counter("pipeline.deadline_miss")
        self._c_block_deadline = m.counter("pipeline.block_deadline_miss")
        self._c_fallback = {
            reason: m.counter("pipeline.block_fallback", reason=reason)
            for reason in ("tracing", "ragged_channels",
                           "channel_count_change")}
        self._c_segments = m.counter("pipeline.segments")
        self._c_ev_gesture = m.counter("pipeline.events", type="gesture")
        self._c_ev_rejected = m.counter("pipeline.events", type="rejected")
        self._c_ev_final = m.counter("pipeline.events", type="scroll_final")
        self._c_ev_live = m.counter("pipeline.events", type="scroll_live")
        self._c_gap_interp = m.counter("pipeline.faults.gaps",
                                       action="interpolated")
        self._c_gap_reset = m.counter("pipeline.faults.gaps", action="reset")
        self._c_out_of_order = m.counter("pipeline.faults.out_of_order")
        self._c_mask = m.counter("pipeline.faults.channel_masked")
        self._c_unmask = m.counter("pipeline.faults.channel_recovered")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def frames_fed(self) -> int:
        """Total frames ingested."""
        return self._fed

    @property
    def segmentation_threshold(self) -> float:
        """Current dynamic threshold on the combined ΔRSS²."""
        return self._segmenter.threshold

    @property
    def stream_position(self) -> int:
        """Current stream sample position (frames fed + gap jumps)."""
        return self._pos

    @property
    def channel_mask(self) -> tuple[bool, ...]:
        """Per-channel masked state (empty before the first frame)."""
        return self._guard.mask if self._guard is not None else ()

    def _gate(self, threshold: float | None = None) -> float:
        # block mode passes the threshold observed at the frame's own
        # position; the live segmenter has already advanced past it
        if threshold is None:
            threshold = self._segmenter.threshold
        return threshold * self.gate_fraction

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

    def _segment_event(self, segment: Segment) -> SegmentEvent:
        rate = self.config.sample_rate_hz
        return SegmentEvent(
            start_index=segment.start,
            end_index=segment.end,
            start_time_s=segment.start / rate,
            end_time_s=segment.end / rate)

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------
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
        combined = float(sum(filtered))
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
            live = self._maybe_live_update()
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
            self._guard = ChannelGuard(
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

    def _note_block_fallback(self, reason: str, n_frames: int) -> None:
        """Book one operator-visible per-frame fallback of *n_frames*.

        A sampled trace (or a block shape only the scalar path can
        digest) makes the affected block roughly an order of magnitude
        slower; ``pipeline.block_fallback{reason=...}`` and a
        ``block_fallback`` span event keep that visible instead of
        silently eating the regression.
        """
        self._c_fallback[reason].inc()
        if self._tr.active:
            span = self._tr.current_span()
            if span is not None:
                span.add_event("block_fallback", reason=reason,
                               n_frames=n_frames)
            else:
                # no enclosing span (bare feed_block under sampling):
                # open a point span so the signal still lands in the trace
                with self._tr.span("pipeline.block_fallback",
                                   reason=reason, n_frames=n_frames):
                    pass

    def feed_block(self, frames) -> list:
        """Ingest a batch of frames; bit-identical events to per-frame
        :meth:`feed` calls over the same frames.

        *frames* is a :class:`~repro.acquisition.stream.FrameBlock` or any
        :class:`RssFrame` iterable.  Contiguous-index stretches go through
        one block call per stage (frame prefilter + SBC, scheduled guard
        checks, the segmenter's block state machine); each stage replays
        its scalar order on stretches shorter than
        :data:`~repro.core.sbc.BLOCK_CROSSOVER` and runs numpy passes on
        longer ones.  Frames that open a gap or arrive out of order are
        delegated one-by-one to the scalar path, which owns the
        degradation semantics.  The equivalence
        contract covers the **event sequence** and all pipeline state;
        latency histograms are recorded block-amortized (the frame and
        stage histograms see the per-frame average ``n`` times, so sample
        counts match the scalar path), while deadline misses are counted
        at block granularity under ``pipeline.block_deadline_miss`` —
        the per-frame ``pipeline.deadline_miss`` counter is scalar-path
        only, because a block average can neither expose a single-frame
        spike nor stand in for ``n`` independent measurements.  When the
        tracer is sampling, the call transparently degrades to per-frame
        :meth:`feed` so every frame keeps its own span tree; that and the
        other scalar fallbacks are counted under
        ``pipeline.block_fallback{reason=...}``.
        """
        if isinstance(frames, FrameBlock):
            values, times = frames.values, frames.times_s
            indices = frames.indices.tolist()
            frame_at = frames.frame
        else:
            # stack a frame list without building a FrameBlock: the
            # boundary and fallback paths reuse the frames themselves
            frames = list(frames)
            try:
                values = np.array([f.values for f in frames],
                                  dtype=np.float64)
            except ValueError:
                # ragged channel counts: only the scalar path can rebuild
                # its filters mid-stream
                self._note_block_fallback("ragged_channels", len(frames))
                return [e for f in frames for e in self.feed(f)]
            indices = [f.index for f in frames]
            times = [f.time_s for f in frames]
            frame_at = frames.__getitem__
        n = len(indices)
        if n == 0:
            return []
        if self._tr.active:
            self._note_block_fallback("tracing", n)
            return [e for i in range(n) for e in self.feed(frame_at(i))]
        n_channels = values.shape[1]
        if ((self.channel_guard and self._guard is not None
                and self._guard.n_channels != n_channels)
                or (self._prefilter is not None
                    and self._prefilter.channels != n_channels)):
            # channel count changed mid-stream; scalar semantics (guard
            # ValueError / filter rebuild) are authoritative
            self._note_block_fallback("channel_count_change", n)
            return [e for i in range(n) for e in self.feed(frame_at(i))]

        events: list = []
        # maximal internally-contiguous stretches; each stretch's head may
        # still open a gap (or be stale) relative to the stream position
        if indices == list(range(indices[0], indices[0] + n)):
            bounds = [0, n]
        else:
            bounds = [0] + [i for i in range(1, n)
                            if indices[i] - indices[i - 1] != 1] + [n]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            i = lo
            while i < hi:
                if self._anchor is None:
                    self._anchor = indices[i]
                if (indices[i] - self._anchor) - self._pos == 0:
                    events.extend(self._run_block(values[i:hi], times[i:hi]))
                    i = hi
                else:
                    # boundary frame: interpolate/reset/drop exactly as the
                    # streaming path would, then resume the fast path
                    events.extend(self._feed(frame_at(i), None))
                    i += 1
        return events

    def _run_block(self, vals: np.ndarray, times) -> list:
        """Block consumption of contiguous, in-order frames: their
        ``(m, channels)`` values and their ``m`` timestamps."""
        t_start = perf_counter()
        self._stage_s.clear()
        m = len(vals)
        n_channels = vals.shape[1]
        pos0 = self._pos
        events: list = []

        # --- channel guard: schedule checks, apply hold substitution ----
        guard_events: dict[int, list] = {}
        reset_offsets: list[int] = []
        x = vals
        if self.channel_guard:
            if self._guard is None:
                self._guard = ChannelGuard(
                    n_channels=n_channels,
                    window=self.config.guard_window_samples,
                    check_every=self.config.guard_check_every_samples,
                    recovery_checks=self.config.guard_recovery_checks)
                self._hold = [0.0] * n_channels
            mask_cur = list(self._guard.mask)
            checks = self._guard.push_block(vals)
            if checks or any(mask_cur):
                x = vals.copy()
                prev = 0
                for off, transitions in checks:
                    for c in range(n_channels):
                        if mask_cur[c]:
                            x[prev:off, c] = self._hold[c]
                    frame_events = []
                    for c, masked, reason, hold in transitions:
                        if masked:
                            self._hold[c] = hold
                            self._c_mask.inc()
                        else:
                            self._c_unmask.inc()
                        mask_cur[c] = masked
                        frame_events.append(ChannelMaskEvent(
                            channel=c, masked=masked, reason=reason,
                            index=pos0 + off, time_s=float(times[off])))
                    guard_events[off] = frame_events
                    reset_offsets.append(off)
                    prev = off
                for c in range(n_channels):
                    if mask_cur[c]:
                        x[prev:m, c] = self._hold[c]
        self._last_values = tuple(x[m - 1].tolist())

        # --- prefilter -> combined -> SBC (exact) -----------------------
        filtered = self._frame_prefilter(n_channels).push_block(x)
        # sequential channel accumulation matches float(sum(tuple))
        combined = np.zeros(m, dtype=np.float64)
        for c in range(n_channels):
            combined += filtered[:, c]
        pieces = []
        prev = 0
        for boundary in reset_offsets:
            pieces.append(self._combined_sbc.push_block(
                combined[prev:boundary]))
            # a mask transition steps the combined signal; the scalar
            # path restarts SBC at exactly this frame
            self._combined_sbc.reset()
            prev = boundary
        pieces.append(self._combined_sbc.push_block(combined[prev:]))
        delta = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        t_prefilter = perf_counter()
        self._h_prefilter.observe_many((t_prefilter - t_start) / m, m)

        # --- segmentation ------------------------------------------------
        seg = self._segmenter.push_block(delta)
        finished = dict(seg.finished)
        t_segmentation = perf_counter()
        self._h_segmentation.observe_many((t_segmentation - t_prefilter) / m, m)

        # --- per-frame bookkeeping + handlers ----------------------------
        # Quiet frames (no open segment, nothing finished, no guard event)
        # only append history and reset the live cooldown; whole quiet
        # spans collapse to two deque extends, which is what makes block
        # mode fast on realistic mostly-idle streams.
        opens = seg.open_start
        thresholds = seg.thresholds
        # list rows, not tuples: _slice_raw only ever np.asarrays them
        rows = filtered.tolist()
        deltas = delta.tolist()
        raw_append = self._raw.append
        delta_append = self._delta.append
        raw_maxlen = self._raw.maxlen or m
        live_every = self.live_update_every
        active = sorted(
            set(seg.open_offsets) | set(finished) | set(guard_events))
        cursor = 0
        for k in active + [m]:
            if k > cursor:  # quiet span [cursor, k)
                # rows deeper than the history deque's maxlen would be
                # evicted before anything reads them — skip appending them
                tail = cursor if k - cursor <= raw_maxlen else k - raw_maxlen
                self._raw.extend(rows[tail:k])
                self._delta.extend(deltas[tail:k])
                self._last_time_s = float(times[k - 1])
                self._pos = pos0 + k
                if live_every:
                    self._live_cooldown = 0
            if k == m:
                break
            frame_events = guard_events.get(k)
            if frame_events is not None:
                events.extend(frame_events)
            raw_append(tuple(rows[k]))
            self._last_time_s = float(times[k])
            delta_append(deltas[k])
            self._pos = pos0 + k + 1
            done = finished.get(k)
            if done is not None:
                events.extend(self._handle_segment(
                    done, gate=float(thresholds[k]) * self.gate_fraction))
                self._live_track_open = False
                self._live_cooldown = 0
            elif live_every:
                live = self._maybe_live_update(opens[k], float(thresholds[k]))
                if live is not None:
                    events.append(live)
                    self._c_ev_live.inc()
            cursor = k + 1
        self._fed += m

        block_s = perf_counter() - t_start
        per_frame_s = block_s / m
        self._h_frame.observe_many(per_frame_s, m)
        self._c_frames.inc(m)
        # Deadline accounting is block-granular here: the block average
        # can hide a single-frame spike and a slow average is one late
        # block, not `m` independent misses — so block mode books one
        # `pipeline.block_deadline_miss` per late block and leaves the
        # per-frame `pipeline.deadline_miss` counter to the scalar path.
        if block_s > m * self._deadline_s:
            self._c_block_deadline.inc()
        prof = get_stage_profile()
        if prof is not None:
            # Vectorized stages come from the block marks; handler stages
            # (dispatch/tracking/detection) accumulated into _stage_s.
            stages = {"prefilter_sbc": t_prefilter - t_start,
                      "segmentation": t_segmentation - t_prefilter}
            for stage, seconds in self._stage_s.items():
                stages[stage] = stages.get(stage, 0.0) + seconds
            prof.add_frame("pipeline.block", block_s, stages, frames=m)
        return events

    def iter_events(self, frames, block_size: int | None = None,
                    flush: bool = True):
        """Lazily yield events as *frames* are consumed.

        This is the generator behind :meth:`feed_frames` and
        :meth:`feed_recording`: events surface as soon as their frame (or
        frame block) is processed instead of accumulating in one eager
        list, so a tracing or UI consumer sees them incrementally.
        *frames* may mix :class:`RssFrame` and
        :class:`~repro.acquisition.stream.FrameBlock` items; with a
        ``block_size`` > 1, loose frames are grouped into blocks of that
        size for :meth:`feed_block`, otherwise they stream through
        :meth:`feed` one by one.
        """
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        batching = block_size is not None and block_size > 1
        pending: list[RssFrame] = []
        for item in frames:
            if isinstance(item, FrameBlock):
                if pending:
                    yield from self.feed_block(pending)
                    pending = []
                yield from self.feed_block(item)
            elif batching:
                pending.append(item)
                if len(pending) >= block_size:
                    yield from self.feed_block(pending)
                    pending = []
            else:
                yield from self.feed(item)
        if pending:
            yield from self.feed_block(pending)
        if flush:
            yield from self.flush()

    def feed_frames(self, frames, block_size: int | None = None) -> list:
        """Feed an arbitrary frame iterable; returns all events plus flush.

        Accepts any :class:`RssFrame` source — notably
        :meth:`FaultSchedule.stream <repro.faults.schedule.FaultSchedule.stream>`,
        whose dropped frames surface here as index gaps.  ``block_size``
        routes consumption through :meth:`feed_block` in batches of that
        size (same events, ~an order of magnitude faster on replay); the
        default keeps the historical frame-by-frame behavior.
        """
        return list(self.iter_events(frames, block_size=block_size))

    def feed_recording(self, recording: Recording,
                       block_size: int | None = None) -> list:
        """Replay a full recording; returns all events plus end-of-stream flush.

        Replay is offline, so it defaults to the vectorized block path
        (``DEFAULT_BLOCK_SIZE`` frames at a time) — bit-identical events
        to the per-frame path, which remains available with
        ``block_size=1``.
        """
        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        if block_size == 1:
            return list(self.iter_events(stream_frames(recording),
                                         block_size=1))
        return list(self.iter_events(
            stream_blocks(recording, block_size), block_size=block_size))

    def flush(self) -> list:
        """Close any open segment at end of stream."""
        tail = self._segmenter.flush()
        if tail is None:
            return []
        out = self._handle_segment(tail)
        self._live_track_open = False
        self._live_cooldown = 0
        return out

    def reset(self) -> None:
        """Drop all stream state (models are kept)."""
        self._segmenter.reset()
        self._combined_sbc.reset()
        self._prefilter = None
        self._raw.clear()
        self._delta.clear()
        self._fed = 0
        self._last_time_s = 0.0
        self._live_cooldown = 0
        self._live_track_open = False
        self._anchor = None
        self._pos = 0
        self._last_values = None
        self._guard = None
        self._hold = []

    # ------------------------------------------------------------------
    # segment handling
    # ------------------------------------------------------------------
    def _stage_scope(self, stage: str, histogram, start_s: float,
                     end_s: float) -> None:
        """Book one measured handler stage: its latency histogram,
        deadline attribution and tracing."""
        histogram.observe(end_s - start_s)
        self._stage_s[stage] = (self._stage_s.get(stage, 0.0)
                                + (end_s - start_s))
        if self._tr.active:
            self._tr.record("pipeline.stage", start_s, end_s, stage=stage)

    def _handle_segment(self, segment: Segment,
                        gate: float | None = None) -> list:
        event = self._segment_event(segment)
        rss = self._slice_raw(segment.start, segment.end)
        out: list = [event]
        self._c_segments.inc()
        if rss.size == 0:
            return out
        if gate is None:
            gate = self._gate()
        # one memo for both decisions: track reuses classify's statistics
        sweep = SweepSlice(rss)
        t_dispatch = perf_counter()
        kind = self._dispatcher.classify(sweep, gate)
        t_track = perf_counter()
        self._stage_scope("dispatch", self._h_dispatch, t_dispatch, t_track)
        if kind == "track":
            result = self.tracker.track(sweep, gate)
            self._stage_scope("tracking", self._h_tracking, t_track,
                              perf_counter())
            out.append(ScrollUpdate(
                direction=result.direction,
                velocity_mm_s=result.velocity_mm_s,
                displacement_mm=result.total_displacement_mm,
                time_s=event.end_time_s,
                final=True,
                segment=event))
            self._c_ev_final.inc()
            return out
        signal = self._slice_delta(segment.start, segment.end)
        if self.interference_filter is None and self.detector is None:
            return out
        t_detect = perf_counter()
        if self.interference_filter is not None:
            if self.interference_filter.gesture_probability(signal) < 0.5:
                self._stage_scope("detection", self._h_detection, t_detect,
                                  perf_counter())
                out.append(GestureEvent(
                    label="non_gesture", confidence=1.0, segment=event,
                    accepted=False))
                self._c_ev_rejected.inc()
                return out
        if self.detector is not None:
            label, confidence = self.detector.predict_one(signal)
            out.append(GestureEvent(
                label=label, confidence=confidence, segment=event,
                accepted=True))
            self._c_ev_gesture.inc()
        self._stage_scope("detection", self._h_detection, t_detect,
                          perf_counter())
        return out

    def _maybe_live_update(self, open_start=_UNSET,
                           threshold: float | None = None
                           ) -> ScrollUpdate | None:
        # block mode passes the open_start/threshold trajectory recorded at
        # each frame; the scalar path reads the live segmenter
        if open_start is _UNSET:
            open_start = self._segmenter.open_start
        if open_start is None:
            self._live_cooldown = 0
            return None
        self._live_cooldown += 1
        if self._live_cooldown % self.live_update_every:
            return None
        elapsed = self._pos - open_start
        if elapsed < 2 * self.config.sbc_window_samples + 4:
            return None
        rss = self._slice_raw(open_start, self._pos)
        if rss.size == 0:
            return None
        gate = self._gate(threshold)
        sweep = SweepSlice(rss)
        # a live track stays open until its segment closes, so once it is
        # open nothing would read another decision
        if not self._live_track_open:
            t_dispatch = perf_counter()
            kind = self._dispatcher.classify(sweep, gate)
            self._stage_scope("dispatch", self._h_dispatch, t_dispatch,
                              perf_counter())
            if kind != "track":
                return None
            self._live_track_open = True
        t_track = perf_counter()
        result = self.tracker.track(sweep, gate)
        self._stage_scope("tracking", self._h_tracking, t_track,
                          perf_counter())
        event = SegmentEvent(
            start_index=open_start,
            end_index=self._pos,
            start_time_s=open_start / self.config.sample_rate_hz,
            end_time_s=self._pos / self.config.sample_rate_hz)
        # report the tracker's own displacement estimate so live and final
        # updates share one measurement (and one sign convention)
        return ScrollUpdate(
            direction=result.direction,
            velocity_mm_s=result.velocity_mm_s,
            displacement_mm=result.total_displacement_mm,
            time_s=self._last_time_s,
            final=False,
            segment=event)

    # ------------------------------------------------------------------
    # offline convenience
    # ------------------------------------------------------------------
    def segment_recording(self, recording: Recording
                          ) -> list[tuple[Segment, np.ndarray, np.ndarray]]:
        """Offline segmentation: ``(segment, rss_slice, delta_slice)`` triples.

        Uses a fresh segmenter so pipeline streaming state is untouched.
        """
        filtered = prefilter(recording.rss, self.config.prefilter_samples)
        combined = filtered.sum(axis=1)
        delta = sbc_transform(combined, self.config.sbc_window_samples)
        segmenter = DynamicThresholdSegmenter(self.config)
        out = []
        for seg in segmenter.segment(delta):
            out.append((seg,
                        filtered[seg.start:seg.end].copy(),
                        delta[seg.start:seg.end].copy()))
        return out
