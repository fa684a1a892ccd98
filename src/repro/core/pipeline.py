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

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.acquisition.sampler import Recording
from repro.acquisition.stream import (
    FrameBlock,
    RssFrame,
    stream_blocks,
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
        Span tracer; when sampling is on (``REPRO_TRACE``), every
        :meth:`feed`/:meth:`feed_block` call becomes a ``pipeline.block``
        span with per-stage child spans, and a deadline miss adds a
        ``deadline_miss`` span event naming the slowest stage.  Defaults
        to the process-global tracer (:func:`repro.obs.get_tracer`).
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
        # the prefilter and the history rings (prefiltered rows, ΔRSS²)
        # are sized by the first frame (_open); a ring keeps position p at
        # row p % _history_len from _hist_start on; _fresh is the block
        # in progress: (pos0, filtered, delta)
        self._prefilter: StreamingMovingAverage | None = None
        self._history_len = (self.config.max_segment_samples
                             + 2 * self.config.cluster_gap_samples + 64)
        self._raw = self._delta = self._fresh = None
        self._hist_start = 0
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
        # metric handles are resolved once; a call only pays record calls
        m = self.metrics if self.metrics is not None else get_registry()
        self._tr = self.tracer if self.tracer is not None else get_tracer()
        # the stage clock: the last stage boundary, this call's per-stage
        # split, and whether this call is traced (see _lap)
        self._mark = 0.0
        self._stage_s: dict[str, float] = {}
        self._traced = False
        self._deadline_s = 1.0 / self.config.sample_rate_hz
        self._h_frame = m.histogram("pipeline.frame_seconds")
        self._h_stage = {
            stage: m.histogram("pipeline.stage_seconds", stage=stage)
            for stage in ("prefilter_sbc", "segmentation", "dispatch",
                          "tracking", "detection")}
        self._c_frames = m.counter("pipeline.frames")
        self._c_deadline = m.counter("pipeline.deadline_miss")
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
    def n_channels(self) -> int | None:
        """The stream's channel count, set by its first frame (or None)."""
        return None if self._raw is None else self._raw.shape[1]

    @property
    def channel_mask(self) -> tuple[bool, ...]:
        """Per-channel masked state (empty before the first frame)."""
        return self._guard.mask if self._guard is not None else ()

    def _gate(self, threshold: float | None = None) -> float:
        # a frame's handlers pass the threshold observed at the frame's
        # own position; the live segmenter may have advanced past it
        if threshold is None:
            threshold = self._segmenter.threshold
        return threshold * self.gate_fraction

    def _open(self, width: int) -> None:
        """Size the prefilter and history for *width*-channel frames."""
        self._prefilter = StreamingMovingAverage(
            self.config.prefilter_samples, channels=width)
        self._raw = np.zeros((self._history_len, width))
        self._delta = np.zeros(self._history_len)

    def _history_offset(self) -> int:
        """The oldest stream position the history keeps."""
        return max(self._hist_start, self._pos - self._history_len)

    def _slice_raw(self, start: int, end: int) -> np.ndarray:
        return self._slice(self._raw, 1, start, end, (0, 0))

    def _slice_delta(self, start: int, end: int) -> np.ndarray:
        return self._slice(self._delta, 2, start, end, (0,))

    def _slice(self, ring, part: int, start: int, end: int,
               empty: tuple) -> np.ndarray:
        """A copy of the kept history at positions ``[start, end)`` (zeros
        of shape *empty* if none): older positions from at most two
        contiguous ranges of *ring*, the block in progress's from
        ``_fresh[part]``."""
        lo = max(start, self._history_offset())
        hi = min(end, self._pos)
        if hi <= lo:
            return np.zeros(empty)
        fresh = self._fresh
        split = hi if fresh is None else max(lo, min(hi, fresh[0]))
        size = self._history_len
        a = lo % size
        b = a + split - lo
        parts = [ring[a:min(b, size)]]
        if b > size:
            parts.append(ring[:b - size])
        if split < hi:
            parts.append(fresh[part][split - fresh[0]:hi - fresh[0]])
        return parts[0].copy() if len(parts) == 1 else np.concatenate(parts)

    def _history(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept history, oldest first: prefiltered rows and ΔRSS²."""
        lo, hi = self._history_offset(), self._pos
        return self._slice_raw(lo, hi), self._slice_delta(lo, hi)

    def _keep(self, pos0: int, filtered: np.ndarray,
              delta: np.ndarray) -> None:
        """Write a block's rows, positions *pos0* on, into the rings."""
        size, m = self._history_len, len(delta)
        a = pos0 % size
        if a + m <= size:               # one contiguous range: most blocks
            self._raw[a:a + m] = filtered
            self._delta[a:a + m] = delta
            return
        skip = max(0, m - size)         # rows overwritten within the block
        a = (pos0 + skip) % size
        head = min(m - skip, size - a)
        for ring, rows in ((self._raw, filtered), (self._delta, delta)):
            ring[a:a + head] = rows[skip:skip + head]
            ring[:m - skip - head] = rows[skip + head:]

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

        A one-frame :meth:`feed_block`: every rule described there holds
        frame by frame.
        """
        return self.feed_block((frame,))

    def feed_block(self, frames) -> list:
        """Ingest a batch of frames; returns the events they triggered.

        *frames* is a :class:`~repro.acquisition.stream.FrameBlock` or any
        :class:`RssFrame` iterable, and the events do not depend on how a
        stream is cut into calls.  The stored history and everything
        downstream (segmentation, onset analysis, features) operate on
        the prefiltered RSS.  Each stretch of contiguous indices goes
        through one block call per stage (scheduled guard checks, frame
        prefilter + SBC, the segmenter's state machine); each stage
        replays its per-sample order on stretches shorter than
        :data:`~repro.core.sbc.BLOCK_CROSSOVER` and runs numpy passes on
        longer ones.

        Imperfect streams degrade instead of derailing:

        * a short index gap is bridged by linear interpolation; the
          invented rows lead the next stretch, skip the channel guard
          and count as no frame;
        * a long gap flushes the segmenter and yields a
          :class:`StreamGap`;
        * an index from the past is counted and dropped;
        * a channel the health guard declares dead or saturated is held
          at its last healthy level until it recovers
          (:class:`ChannelMaskEvent` marks both transitions);
        * the stream's first frame sets its channel count: frames of
          another width, or a list mixing widths, raise ``ValueError``
          before any frame of the call is ingested, guard on or off.

        Each call is booked once: the frame and stage histograms see
        its per-frame average once per frame (so their sample counts do
        not depend on the cut), a call slower than its frames' share of
        the 100 Hz budget (``n`` frames × 10 ms) counts once under
        ``pipeline.deadline_miss``, and a sampling tracer records it as
        one ``pipeline.block`` span with ``pipeline.stage`` children.
        """
        t_start = perf_counter()
        if not isinstance(frames, FrameBlock):
            frames = FrameBlock.from_frames(frames)
        n = len(frames.indices)
        if n == 0:
            return []
        width = frames.values.shape[1]
        if self._raw is None:
            self._open(width)
        elif width != self._raw.shape[1]:
            raise ValueError(f"frames have {width} channels; this "
                             f"stream's have {self._raw.shape[1]}")
        self._stage_s.clear()
        self._traced = self._tr.active
        if self._traced:
            with self._tr.span("pipeline.block", index=self._fed,
                               frames=n) as span:
                return self._consume(frames, n, t_start, span)
        return self._consume(frames, n, t_start, None)

    def _consume(self, block, n: int, t_start: float, span) -> list:
        """Ingest the *n*-frame block of one :meth:`feed_block` call
        (started at *t_start*) and book the call."""
        fed0 = self._fed
        events: list = []
        values, times = block.values, block.times_s
        indices = block.indices.tolist()
        # maximal internally-contiguous stretches; each stretch's head
        # may still open a gap (or be stale) relative to the position
        if indices == list(range(indices[0], indices[0] + n)):
            bounds = [0, n]
        else:
            bounds = [0] + [i for i in range(1, n)
                            if indices[i] - indices[i - 1] != 1] + [n]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if self._anchor is None:
                self._anchor = indices[lo]
            gap = (indices[lo] - self._anchor) - self._pos
            if gap < 0:
                # indices from the past: their slots are already filled
                # (by real or interpolated samples), so rewinding history
                # is impossible and ingesting them would desync every
                # later frame — count and drop them
                stale = min(-gap, hi - lo)
                self._c_out_of_order.inc(stale)
                if span is not None:
                    expected = self._pos + self._anchor
                    for k in range(lo, lo + stale):
                        span.add_event("out_of_order",
                                       frame_index=indices[k],
                                       expected=expected)
                lo += stale
                if lo == hi:
                    continue
            x, t = values[lo:hi], times[lo:hi]
            n_interp = 0
            if gap > 0:
                if (gap <= self.config.max_gap_samples
                        and self._last_values is not None):
                    bridge, bridge_t = self._bridge(gap, x[0], float(t[0]))
                    if span is not None:
                        span.add_event("gap_interpolated",
                                       n_missing=gap, start=self._pos)
                    self._c_gap_interp.inc(gap)
                    x = np.concatenate((bridge, x))
                    t = [*bridge_t, *t]
                    n_interp = gap
                else:
                    events.extend(self._reset_after_gap(
                        gap, float(t[0]), span))
            events.extend(self._run_block(x, t, n_interp, span))

        fed = self._fed - fed0
        if fed:
            call_s = perf_counter() - t_start
            self._h_frame.observe_many(call_s / fed, fed)
            self._c_frames.inc(fed)
            stages = self._stage_s
            deadline_s = n * self._deadline_s
            if call_s > deadline_s:
                self._c_deadline.inc()
                if span is not None:
                    span.add_event(
                        "deadline_miss", stage=max(stages, key=stages.get),
                        frame_index=fed0, frames=n, frame_s=call_s,
                        deadline_s=deadline_s)
            # continuous profiling re-uses the stage splits measured in
            # the call — when off this is one global read + None check
            prof = get_stage_profile()
            if prof is not None:
                prof.add_frame("pipeline.block", call_s, stages, frames=fed)
        return events

    def _bridge(self, gap: int, head: np.ndarray, head_time_s: float
                ) -> tuple[np.ndarray, list[float]]:
        """The *gap* rows, and their times, interpolated between the last
        ingested values and the raw *head* row after the gap."""
        last = np.array(self._last_values, dtype=np.float64)
        frac = np.arange(1, gap + 1) / (gap + 1)
        rate = self.config.sample_rate_hz
        times = [head_time_s - (gap - k) / rate for k in range(gap)]
        return last + frac[:, None] * (head - last), times

    def _reset_after_gap(self, gap: int, time_s: float, span) -> list:
        """Jump *gap* positions ahead over a gap too long to invent data
        for: flush in-flight state and mark the jump with a
        :class:`StreamGap`."""
        events: list = []
        start = self._pos
        tail = self._segmenter.discontinuity(gap)
        if tail is not None:
            events.extend(self._handle_segment(tail))
        self._combined_sbc.reset()
        self._prefilter.reset()
        if self._guard is not None:
            self._guard.clear_window()
        self._live_track_open = False
        self._live_cooldown = 0
        self._pos += gap
        self._hist_start = self._pos
        events.append(StreamGap(
            start_index=start, end_index=self._pos,
            duration_s=gap / self.config.sample_rate_hz, time_s=time_s))
        self._c_gap_reset.inc()
        if span is not None:
            span.add_event("stream_gap", n_missing=gap, start=start)
        return events

    def _run_block(self, vals: np.ndarray, times, n_interp: int,
                   span) -> list:
        """Block consumption of contiguous, in-order rows: their
        ``(m, channels)`` values and their ``m`` timestamps.  The first
        *n_interp* rows bridge a gap: they skip the channel guard and its
        hold substitution, and count as no frame."""
        self._mark = perf_counter()
        m, n_channels = vals.shape
        pos0 = self._pos
        events: list = []

        # --- channel guard: schedule checks, apply hold substitution ----
        guard_events: dict[int, list] = {}
        reset_offsets: list[int] = []
        x = vals
        if self.channel_guard and m > n_interp:
            if self._guard is None:
                self._guard = ChannelGuard(
                    n_channels=n_channels,
                    window=self.config.guard_window_samples,
                    check_every=self.config.guard_check_every_samples,
                    recovery_checks=self.config.guard_recovery_checks)
                self._hold = [0.0] * n_channels
            mask_cur = self._guard.mask
            checks = self._guard.push_block(vals[n_interp:])
            if checks or any(mask_cur):
                mask_cur = list(mask_cur)
                x = vals.copy()
                real = x[n_interp:]
                prev = 0
                for off, transitions in checks:
                    for c in range(n_channels):
                        if mask_cur[c]:
                            real[prev:off, c] = self._hold[c]
                    k = n_interp + off
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
                            index=pos0 + k, time_s=float(times[k])))
                        if span is not None:
                            span.add_event("channel_mask", channel=c,
                                           masked=masked, reason=reason)
                    guard_events[k] = frame_events
                    reset_offsets.append(k)
                    prev = off
                for c in range(n_channels):
                    if mask_cur[c]:
                        real[prev:, c] = self._hold[c]
        if m > n_interp:
            self._last_values = tuple(x[m - 1].tolist())

        # --- prefilter -> combined -> SBC (exact) -----------------------
        filtered = self._prefilter.push_block(x)
        # each row's channel sum folded from 0.0 in channel order:
        # accumulate adds left to right, and the + 0.0 is the start
        # value's only trace (an all -0.0 row sums to 0.0)
        combined = np.add.accumulate(filtered, axis=1)[:, -1] + 0.0
        pieces = []
        prev = 0
        for boundary in reset_offsets:
            pieces.append(self._combined_sbc.push_block(
                combined[prev:boundary]))
            # a mask transition steps the combined signal when a
            # channel's contribution is swapped for the held level;
            # restart SBC at exactly this frame so the step does not
            # masquerade as gesture energy
            self._combined_sbc.reset()
            prev = boundary
        pieces.append(self._combined_sbc.push_block(combined[prev:]))
        delta = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        self._lap("prefilter_sbc", m)

        # --- segmentation ------------------------------------------------
        seg = self._segmenter.push_block(delta)
        finished = dict(seg.finished)
        self._lap("segmentation", m)

        # --- per-frame bookkeeping + handlers ----------------------------
        # Quiet frames (no open segment, nothing finished, no guard event)
        # only advance the position and reset the live cooldown, in one
        # step per quiet span.  Handlers read this block's rows from
        # _fresh; the rings take them once, afterwards.
        self._fresh = (pos0, filtered, delta)
        opens = seg.open_start
        thresholds = seg.thresholds
        live_every = self.live_update_every
        active = sorted({*seg.open_offsets, *finished, *guard_events})
        cursor = 0
        for k in active + [m]:
            if k > cursor:  # quiet span [cursor, k)
                self._last_time_s = float(times[k - 1])
                self._pos = pos0 + k
                if live_every:
                    self._live_cooldown = 0
            if k == m:
                break
            frame_events = guard_events.get(k)
            if frame_events is not None:
                events.extend(frame_events)
            self._last_time_s = float(times[k])
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
        self._keep(pos0, filtered, delta)
        self._fresh = None
        self._fed += m - n_interp
        return events

    def iter_events(self, frames, block_size: int | None = None,
                    flush: bool = True):
        """Lazily yield events as *frames* are consumed.

        This is the generator behind :meth:`feed_frames` and
        :meth:`feed_recording`: events surface as soon as their frame (or
        frame block) is processed instead of accumulating in one eager
        list, so a tracing or UI consumer sees them incrementally.
        *frames* may mix :class:`RssFrame` and
        :class:`~repro.acquisition.stream.FrameBlock` items; loose frames
        reach :meth:`feed_block` in groups of ``block_size`` (default 1).
        """
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        pending: list[RssFrame] = []
        for item in frames:
            if isinstance(item, FrameBlock):
                if pending:
                    yield from self.feed_block(pending)
                    pending = []
                yield from self.feed_block(item)
            else:
                pending.append(item)
                if len(pending) >= (block_size or 1):
                    yield from self.feed_block(pending)
                    pending = []
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
        default feeds frame by frame.
        """
        return list(self.iter_events(frames, block_size=block_size))

    def feed_recording(self, recording: Recording,
                       block_size: int | None = None) -> list:
        """Replay a full recording; returns all events plus end-of-stream flush.

        Replay is offline, so it defaults to ``DEFAULT_BLOCK_SIZE``-frame
        :meth:`feed_block` calls — the same events as any other cut,
        ``block_size=1`` (frame by frame) included.
        """
        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        return list(self.iter_events(
            stream_blocks(recording, block_size), block_size=block_size))

    def flush(self) -> list:
        """Close any open segment at end of stream."""
        tail = self._segmenter.flush()
        if tail is None:
            return []
        self._traced = self._tr.active
        out = self._handle_segment(tail)
        self._live_track_open = False
        self._live_cooldown = 0
        return out

    def reset(self) -> None:
        """Drop all stream state (models are kept)."""
        self._segmenter.reset()
        self._combined_sbc.reset()
        self._prefilter = self._raw = self._delta = self._fresh = None
        self._hist_start = 0
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
    # stage clock
    # ------------------------------------------------------------------
    def _lap(self, stage: str, frames: int = 0) -> None:
        """Book the time since the last stage boundary to *stage*, and
        make now the boundary.

        One clock read feeds every sink: the stage's
        ``pipeline.stage_seconds`` histogram (per frame over *frames*
        frames, else one observation per call), this call's stage split
        (deadline attribution and :class:`~repro.obs.StageProfile`) and,
        when the call is traced, a ``pipeline.stage`` span.  A stage that
        starts after untimed work sets ``_mark`` first.
        """
        start = self._mark
        end = self._mark = perf_counter()
        elapsed = end - start
        if frames:
            self._h_stage[stage].observe_many(elapsed / frames, frames)
        else:
            self._h_stage[stage].observe(elapsed)
        self._stage_s[stage] = self._stage_s.get(stage, 0.0) + elapsed
        if self._traced:
            self._tr.record("pipeline.stage", start, end, stage=stage)

    # ------------------------------------------------------------------
    # segment handling
    # ------------------------------------------------------------------
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
        self._mark = perf_counter()
        kind = self._dispatcher.classify(sweep, gate)
        self._lap("dispatch")
        if kind == "track":
            result = self.tracker.track(sweep, gate)
            self._lap("tracking")
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
        self._mark = perf_counter()
        if self.interference_filter is not None:
            if self.interference_filter.gesture_probability(signal) < 0.5:
                self._lap("detection")
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
        self._lap("detection")
        return out

    def _maybe_live_update(self, open_start: int | None,
                           threshold: float) -> ScrollUpdate | None:
        # open_start/threshold are the segmenter's state right after this
        # frame; the live segmenter may have advanced past it
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
        self._mark = perf_counter()
        # a live track stays open until its segment closes, so once it is
        # open nothing would read another decision
        if not self._live_track_open:
            kind = self._dispatcher.classify(sweep, gate)
            self._lap("dispatch")
            if kind != "track":
                return None
            self._live_track_open = True
        result = self.tracker.track(sweep, gate)
        self._lap("tracking")
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
