"""Dynamic Threshold (DT) gesture segmentation — Section IV-B2.

The segmenter thresholds the ΔRSS² stream into gesture (G) and non-gesture
(NG) classes.  A fixed threshold cannot work because the ΔRSS² range shifts
with finger distance, so the threshold ``I_seg`` is recomputed on-line by
maximizing the inter-class variance ``ω0·ω1·(μ0-μ1)²`` over accumulated
readings — Otsu's method (the paper cites the background/foreground
segmentation analogy of computer vision).

Start/end detection follows the paper exactly: a sample exceeding ``I_seg``
opens a segment, a sample at or below it closes one, and segments separated
by less than ``t_e`` are clustered into a single gesture.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.config import AirFingerConfig
from repro.core.sbc import BLOCK_CROSSOVER
from repro.utils import fast_quantile, sorted_quantile

__all__ = ["otsu_threshold", "Segment", "BlockSegmentation",
           "DynamicThresholdSegmenter"]


def otsu_threshold(values: np.ndarray,
                   n_bins: int = 128,
                   initial: float = 10.0) -> float:
    """The threshold maximizing inter-class variance over *values*.

    Parameters
    ----------
    values:
        Accumulated ΔRSS² readings; NaN, ±inf and non-positive readings
        take no part.
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
    positive = values[np.isfinite(values) & (values > 0.0)]
    positive.sort()
    return _otsu_sorted(positive, n_bins, initial)


def _otsu_sorted(positive: np.ndarray, n_bins: int, initial: float) -> float:
    """:func:`otsu_threshold` of *positive*: finite samples > 0, ascending."""
    if positive.size < 16:
        return float(initial)
    logs = np.log(positive)
    # the log of an ascending array ascends in exact arithmetic; check the
    # rounded one rather than trust it
    if not (logs[:-1] <= logs[1:]).all():
        logs.sort()
    lo, hi = float(logs[0]), float(logs[-1])
    if hi - lo < 1e-9:
        return float(initial)
    # np.linspace(lo, hi, n_bins + 1) spelled out (same bits, less overhead):
    # arange * step, += start, endpoint forced to stop
    edges = np.arange(0, n_bins + 1, dtype=np.float64)
    edges *= (hi - lo) / n_bins
    edges += lo
    edges[-1] = hi
    # np.histogram(logs, bins=edges): a sample falls in bin j when
    # edges[j] <= it < edges[j + 1], the top edge folded into the last bin,
    # so the samples of bins 0..j are those below edge j + 1 — one binary
    # search per inner edge in the sorted logs counts them
    w_cum = np.empty(n_bins, dtype=np.intp)
    w_cum[:-1] = np.searchsorted(logs, edges[1:-1], side="left")
    total = logs.size
    w_cum[-1] = total
    hist = w_cum.copy()
    hist[1:] -= w_cum[:-1]
    centers = 0.5 * (edges[:-1] + edges[1:])  # log-space bin centres
    mass_cum = np.add.accumulate(hist * centers)
    mass_total = mass_cum[-1]
    # candidate threshold after each bin: class NG = bins <= k, G = bins > k
    # (every count and mass is finite and each class count is floored at
    # 1, so every score is finite)
    w_cum = w_cum[:-1]
    w1 = w_cum / total                            # NG weight
    w0 = 1.0 - w1                                 # G weight
    mu1 = mass_cum[:-1] / np.maximum(w_cum, 1)
    mu0 = (mass_total - mass_cum[:-1]) / np.maximum(total - w_cum, 1)
    score = w0 * w1 * (mu0 - mu1) ** 2
    k = int(score.argmax())
    if score[k] <= 0:
        return float(initial)
    return float(np.exp(edges[k + 1]))


@dataclass(frozen=True)
class Segment:
    """A detected gesture extent, in sample indices ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid segment [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        """Number of samples covered."""
        return self.end - self.start

    def gap_to(self, other: "Segment") -> int:
        """Samples between this segment's end and *other*'s start (>= 0)."""
        if other.start < self.end:
            return 0
        return other.start - self.end

    def merged(self, other: "Segment") -> "Segment":
        """The union-extent of two segments."""
        return Segment(min(self.start, other.start), max(self.end, other.end))


@dataclass(frozen=True)
class BlockSegmentation:
    """Per-frame segmentation outcome of one :meth:`push_block` call.

    ``finished`` lists ``(offset, segment)`` pairs — the block-relative
    offsets at which :meth:`DynamicThresholdSegmenter.push` would have
    returned a segment.  ``open_start`` (a list) and ``thresholds`` (a
    float64 ndarray) record, for every offset, the segmenter's
    ``open_start``/``threshold`` state as observed *after* that sample
    was pushed, which is exactly what the pipeline's live-update path
    reads between scalar pushes.
    ``open_offsets`` lists, in order, the offsets whose ``open_start`` is
    not None, so consumers need not scan the whole block for them.
    """

    finished: list
    open_start: list
    thresholds: "np.ndarray"
    open_offsets: list


class DynamicThresholdSegmenter:
    """On-line gesture segmentation over a ΔRSS² stream.

    Usage (streaming)::

        seg = DynamicThresholdSegmenter(config)
        for i, value in enumerate(delta_sq_stream):
            finished = seg.push(value)
            if finished is not None:
                ...  # a gesture spanning finished.start..finished.end

    or offline via :meth:`segment`.
    """

    def __init__(self, config: AirFingerConfig | None = None) -> None:
        self.config = config or AirFingerConfig()
        # threshold history lives in a preallocated ring: the refresh math
        # (quantile, Otsu) is order-independent, so the rotated layout is
        # observationally identical to the old chronological deque while
        # skipping a per-refresh np.fromiter copy
        self._hist_buf = np.empty(self.config.history_samples,
                                  dtype=np.float64)
        self._hist_len = 0
        self._hist_pos = 0
        self._threshold = float(self.config.initial_threshold)
        self._since_refresh = 0
        self._index = 0
        self._open_start: int | None = None
        self._pending: Segment | None = None
        self._gap = 0
        self._env_buffer: deque[float] = deque(maxlen=self.config.envelope_samples)
        self._env_sum = 0.0
        # causal envelope delays the apparent onset by ~half the window
        self._backdate = self.config.envelope_samples // 2

    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """The current dynamic threshold ``I_seg``."""
        return self._threshold

    @property
    def samples_seen(self) -> int:
        """Total ΔRSS² samples pushed."""
        return self._index

    @property
    def open_start(self) -> int | None:
        """Start index of the currently open segment, or None when closed.

        Read-only streaming state for consumers (e.g. the live-update path
        of :class:`~repro.core.pipeline.AirFinger`) that need to know the
        in-progress gesture extent without reaching into internals.
        """
        return self._open_start

    def _refresh_from(self, history: np.ndarray) -> float | None:
        """The refreshed threshold for *history*, or None to keep the old one.

        The refresh math (quantile, Otsu histogram) is order-independent,
        so *history* may arrive in any permutation of the window; it reads
        both from one sorted copy.
        """
        config = self.config
        # Otsu needs both modes (noise and gesture) in view to be
        # meaningful; hold the initial threshold until a second of data has
        # accumulated.
        if history.size < config.sample_rate_hz:
            return None
        ordered = np.sort(history)
        # The noise floor is estimated from the 25th percentile: even with a
        # heavy gesture duty cycle most history samples are quiet, so this
        # quantile tracks the noise mode and never creeps up with gestures.
        noise_level = sorted_quantile(ordered, 0.25)
        if noise_level is None:
            noise_level = fast_quantile(history, 0.25)
        floor = max(config.threshold_floor_factor * noise_level, 1e-9)
        if math.isfinite(ordered[0]) and math.isfinite(ordered[-1]):
            positive = ordered[np.searchsorted(ordered, 0.0, side="right"):]
        else:  # NaN sorts last, ±inf to the ends
            positive = ordered[np.isfinite(ordered) & (ordered > 0.0)]
        otsu = _otsu_sorted(positive, config.otsu_bins,
                            config.initial_threshold)
        if otsu > 100.0 * floor:
            # Otsu split inside the gesture mode (e.g. the history holds
            # mostly strong gestures); fall back to the noise-based floor.
            return floor
        return max(otsu, floor)

    # ------------------------------------------------------------------
    def push(self, value: float) -> Segment | None:
        """Ingest one ΔRSS² sample; returns a finished gesture segment or None.

        A segment is only emitted once it has been closed for more than
        ``t_e`` samples (otherwise a following burst would have been
        clustered into it) and it passes the minimum-length filter.
        """
        finished = self._replay([float(value)])[0]
        return finished[0][1] if finished else None

    def push_block(self, values: np.ndarray) -> BlockSegmentation:
        """Ingest N ΔRSS² samples; bit-identical to N :meth:`push` calls.

        Blocks shorter than :data:`~repro.core.sbc.BLOCK_CROSSOVER` run
        :meth:`push`'s own per-sample loop over the whole block, with the
        state in locals.  Longer blocks run three passes: the envelope as one
        accumulate, the block's threshold refreshes (each one
        :meth:`_refresh_from` of its window), and the open/pending/gap
        state machine fast-forwarding over quiet spans.  Besides the
        finished segments (with their block offsets), the returned
        :class:`BlockSegmentation` exposes
        the post-push ``open_start``/``threshold`` trajectory the
        pipeline needs to interleave live updates without re-reading
        (already advanced) segmenter state.
        """
        x = np.asarray(values, dtype=np.float64).ravel()
        n = x.size
        if n < BLOCK_CROSSOVER:
            finished, open_after, thresholds, open_offsets = self._replay(
                x.tolist())
            return BlockSegmentation(finished, open_after,
                                     np.array(thresholds, dtype=np.float64),
                                     open_offsets)
        finished: list = []
        open_after: list = []

        config = self.config
        env_buf = self._env_buffer
        env_maxlen = env_buf.maxlen
        env_sum = self._env_sum
        hist = self._hist_buf
        hist_size = hist.shape[0]
        hist_pos = self._hist_pos
        hist_len = self._hist_len
        since = self._since_refresh
        refresh_every = config.otsu_refresh_samples
        threshold = self._threshold
        index = self._index
        open_start = self._open_start
        pending = self._pending
        gap = self._gap
        max_len = config.max_segment_samples
        cluster_gap = config.cluster_gap_samples
        min_len = config.min_segment_samples
        backdate = self._backdate

        def take_pending(segment: Segment) -> Segment | None:
            if segment.length < min_len:
                return None
            start = max(0, segment.start - backdate)
            end = max(start + 1, segment.end - backdate)
            return Segment(start, end)

        # Pass 1 — envelope. The running-sum carry is truly serial float
        # state (its residue must match the scalar push bits), but a
        # left-fold is exactly what ``np.add.accumulate`` computes: lay the
        # scalar loop's subtract-evicted / add-raw operations out as one
        # interleaved sequence and accumulate it, and every partial sum —
        # and therefore every envelope value — carries the scalar bits.
        carry = list(env_buf)
        carry_len = len(carry)
        evict_from = env_maxlen - carry_len
        n_grow = min(max(evict_from, 0), n)  # samples before first eviction
        acc_grow = np.add.accumulate(np.concatenate([[env_sum], x[:n_grow]]))
        sizes = np.arange(carry_len + 1, carry_len + n_grow + 1)
        env_grow = acc_grow[1:] / np.minimum(sizes, env_maxlen)
        env_sum = acc_grow[-1]
        n_roll = n - n_grow
        if n_roll:
            combined = np.concatenate([np.asarray(carry, dtype=np.float64), x])
            evicted = combined[carry_len + n_grow - env_maxlen:
                               carry_len + n - env_maxlen]
            steps = np.empty(2 * n_roll + 1)
            steps[0] = env_sum
            steps[1::2] = -evicted  # scalar order: evict, then add
            steps[2::2] = x[n_grow:]
            acc_roll = np.add.accumulate(steps)
            env_arr = np.concatenate([env_grow, acc_roll[2::2] / env_maxlen])
            env_sum = acc_roll[-1]
        else:
            env_arr = env_grow
        env_sum = float(env_sum)
        # the deque discards all but the trailing maxlen raws anyway
        env_buf.extend(x[max(0, n - env_maxlen):].tolist())

        # Pass 2 — threshold refreshes. Refresh offsets are a fixed
        # cadence, and every refresh window is a tail of (prior ring
        # content ++ envelope values).
        first_refresh = max(0, refresh_every - 1 - since)
        offsets = range(first_refresh, n, refresh_every)
        refreshed: list[float | None] = []
        if offsets:
            if hist_len < hist_size:
                prior = hist[:hist_len]
            elif hist_pos == 0:
                prior = hist
            else:
                prior = np.concatenate([hist[hist_pos:], hist[:hist_pos]])
            full_hist = np.concatenate([prior, env_arr])
            for off in offsets:
                end = hist_len + off + 1
                refreshed.append(self._refresh_from(
                    full_hist[max(0, end - hist_size):end]))

        # ring/state bookkeeping the scalar loop would have done per push
        if offsets:
            since = n - 1 - offsets[-1]
        else:
            since += n
        tail = min(n, hist_size)
        ring_idx = (hist_pos + np.arange(n - tail, n)) % hist_size
        hist[ring_idx] = env_arr[n - tail:]
        hist_pos = (hist_pos + n) % hist_size
        hist_len = min(hist_len + n, hist_size)

        # Pass 3 — the open/pending/gap state machine. The threshold
        # trajectory is state-independent (refreshes depend only on the
        # envelope history), so it is laid out per-sample up front, the
        # above-threshold mask is computed in one vectorized compare, and
        # the scalar-order state machine then fast-forwards across
        # quiescent spans (nothing open, nothing pending, no crossings) —
        # the overwhelmingly common case on idle-dominated streams — where
        # each scalar step is provably a no-op beyond ``index += 1``.
        if offsets:
            thr_vals: list[float] = []
            span_lens: list[int] = []
            prev = 0
            cur_thr = threshold
            for off, new_thr in zip(offsets, refreshed):
                span_lens.append(off - prev)
                thr_vals.append(cur_thr)
                if new_thr is not None:
                    cur_thr = new_thr
                prev = off
            span_lens.append(n - prev)
            thr_vals.append(cur_thr)
            thr_per_sample = np.repeat(thr_vals, span_lens)
        else:
            thr_per_sample = np.full(n, threshold)
        mask = env_arr > thr_per_sample
        mask_list = mask.tolist()
        active_list = np.flatnonzero(mask).tolist()
        n_active = len(active_list)
        open_after = [None] * n
        open_offsets: list[int] = []

        ap = 0
        off = 0
        while off < n:
            if open_start is None and pending is None:
                while ap < n_active and active_list[ap] < off:
                    ap += 1
                if ap == n_active:
                    index += n - off
                    break
                nxt = active_list[ap]
                index += nxt - off
                off = nxt
            if mask_list[off]:
                if open_start is None:
                    if pending is not None and gap < cluster_gap:
                        open_start = pending.start
                        pending = None
                    else:
                        if pending is not None:
                            emitted = take_pending(pending)
                            pending = None
                            gap = 0
                            if emitted is not None:
                                finished.append((off, emitted))
                        open_start = index
                if index - open_start + 1 >= max_len:
                    pending = Segment(open_start, index + 1)
                    open_start = None
                    gap = 0
            else:
                if open_start is not None:
                    pending = Segment(open_start, index)
                    open_start = None
                    gap = 0
                elif pending is not None:
                    gap += 1
                    if gap >= cluster_gap:
                        emitted = take_pending(pending)
                        pending = None
                        gap = 0
                        if emitted is not None:
                            finished.append((off, emitted))
            index += 1
            if open_start is not None:
                open_after[off] = open_start
                open_offsets.append(off)
            off += 1
        threshold = float(thr_per_sample[-1])

        self._env_sum = env_sum
        self._hist_pos = hist_pos
        self._hist_len = hist_len
        self._since_refresh = since
        self._threshold = threshold
        self._index = index
        self._open_start = open_start
        self._pending = pending
        self._gap = gap
        return BlockSegmentation(finished, open_after, thr_per_sample,
                                 open_offsets)

    def _replay(self, values: list) -> tuple[list, list, list, list]:
        """The per-sample recurrence over *values* (floats), in push order.

        The one implementation of :meth:`push`, and a short block's path:
        returns ``(finished, open_after, thresholds, open_offsets)`` as
        :class:`BlockSegmentation` lays them out.
        """
        config = self.config
        env_buf = self._env_buffer
        env_full = env_buf.maxlen
        env_sum = self._env_sum
        hist = self._hist_buf
        hist_size = hist.shape[0]
        hist_pos = self._hist_pos
        hist_len = self._hist_len
        since = self._since_refresh
        refresh_every = config.otsu_refresh_samples
        threshold = self._threshold
        index = self._index
        open_start = self._open_start
        pending = self._pending
        gap = self._gap
        max_len = config.max_segment_samples
        cluster_gap = config.cluster_gap_samples
        min_len = config.min_segment_samples
        backdate = self._backdate
        finished: list = []
        open_after: list = []
        open_offsets: list = []
        thresholds: list = []
        for off, raw in enumerate(values):
            if len(env_buf) == env_full:
                env_sum -= env_buf[0]
            env_buf.append(raw)
            env_sum += raw
            value = env_sum / len(env_buf)
            hist[hist_pos] = value
            hist_pos += 1
            if hist_pos == hist_size:
                hist_pos = 0
            if hist_len < hist_size:
                hist_len += 1
            since += 1
            if since >= refresh_every:
                new = self._refresh_from(hist[:hist_len])
                if new is not None:
                    threshold = new
                since = 0
            thresholds.append(threshold)

            emitted = None
            if value > threshold:
                if open_start is None:
                    if pending is not None and gap < cluster_gap:
                        # cluster with the previous burst (gap < t_e)
                        open_start = pending.start
                        pending = None
                    else:
                        emitted = pending
                        pending = None
                        if emitted is not None:
                            gap = 0
                        open_start = index
                if index - open_start + 1 >= max_len:
                    pending = Segment(open_start, index + 1)
                    open_start = None
                    gap = 0
            elif open_start is not None:
                pending = Segment(open_start, index)
                open_start = None
                gap = 0
            elif pending is not None:
                gap += 1
                if gap >= cluster_gap:
                    emitted = pending
                    pending = None
                    gap = 0
            if emitted is not None and emitted.length >= min_len:
                # compensate the causal envelope's onset delay
                start = max(0, emitted.start - backdate)
                finished.append(
                    (off, Segment(start, max(start + 1,
                                             emitted.end - backdate))))
            index += 1
            open_after.append(open_start)
            if open_start is not None:
                open_offsets.append(off)

        self._env_sum = env_sum
        self._hist_pos = hist_pos
        self._hist_len = hist_len
        self._since_refresh = since
        self._threshold = threshold
        self._index = index
        self._open_start = open_start
        self._pending = pending
        self._gap = gap
        return finished, open_after, thresholds, open_offsets

    def _take_pending(self) -> Segment | None:
        if self._pending is None:
            return None
        segment = self._pending
        self._pending = None
        self._gap = 0
        if segment.length < self.config.min_segment_samples:
            return None
        # compensate the causal envelope's onset delay
        start = max(0, segment.start - self._backdate)
        end = max(start + 1, segment.end - self._backdate)
        return Segment(start, end)

    def flush(self) -> Segment | None:
        """Close any open or pending segment at end of stream."""
        if self._open_start is not None:
            self._pending = Segment(self._open_start, self._index)
            self._open_start = None
        return self._take_pending()

    def discontinuity(self, n_missing: int) -> Segment | None:
        """Jump the stream position over *n_missing* lost samples.

        Called by the pipeline when a frame gap is too long to
        interpolate: any open or pending burst is flushed (returned
        truncated at the gap rather than silently dropped — the
        degradation contract), the causal envelope is cleared so stale
        pre-gap energy cannot leak into post-gap samples, and the sample
        counter advances so later segments keep absolute positions.
        Threshold history survives — the environment did not change just
        because frames were lost.
        """
        if n_missing < 1:
            raise ValueError("n_missing must be >= 1")
        tail = self.flush()
        self._index += n_missing
        self._gap = 0
        self._env_buffer.clear()
        self._env_sum = 0.0
        return tail

    def reset(self) -> None:
        """Forget all state (threshold history included)."""
        self._hist_len = 0
        self._hist_pos = 0
        self._threshold = float(self.config.initial_threshold)
        self._since_refresh = 0
        self._index = 0
        self._open_start = None
        self._pending = None
        self._gap = 0
        self._env_buffer.clear()
        self._env_sum = 0.0

    # ------------------------------------------------------------------
    def segment(self, delta_sq: np.ndarray) -> list[Segment]:
        """Offline segmentation of a full ΔRSS² array."""
        self.reset()
        segments: list[Segment] = []
        for value in np.asarray(delta_sq, dtype=np.float64).ravel():
            done = self.push(value)
            if done is not None:
                segments.append(done)
        tail = self.flush()
        if tail is not None:
            segments.append(tail)
        return segments
