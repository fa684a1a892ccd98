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

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.config import AirFingerConfig
from repro.core.sbc import BLOCK_CROSSOVER
from repro.utils import fast_quantile

__all__ = ["otsu_threshold", "Segment", "BlockSegmentation",
           "DynamicThresholdSegmenter"]


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


def _otsu_batch(values: np.ndarray, n_bins: int,
                initial: float,
                logs: np.ndarray | None = None) -> np.ndarray | None:
    """Row-wise :func:`otsu_threshold` over ``(R, W)`` finite samples.

    Every elementwise expression mirrors the scalar function, and the
    reductions (counts, min/max, histogram, argmax tie-breaking) are
    order-independent, so each returned threshold carries the exact bits
    of ``otsu_threshold(values[r])``.  Rows may be arbitrary permutations
    of their windows (e.g. partition leftovers).  Callers must guarantee
    finite non-negative inputs and ``W >= 16``; returns ``None`` if the
    histogram index search fails to settle (caller falls back to the
    scalar path).

    *logs*, when given, must be ``np.log`` of the positive elements of
    *values* (non-positive slots may hold anything — they are replaced
    before use).  The log is elementwise, so precomputing it once per
    history sample and slicing windows out of it yields the same bits as
    taking it per window — which matters because refresh windows overlap
    ``W / refresh_every``-fold.
    """
    n_rows, width = values.shape
    out = np.full(n_rows, float(initial))
    pos_mask = values > 0.0
    pos_count = np.count_nonzero(pos_mask, axis=1)
    valid = pos_count >= 16
    if not np.any(valid):
        return out
    # log-range per row: the log is weakly monotone, so the min positive /
    # max value map to the scalar code's log_vals.min()/.max() bits.
    # Invalid rows get a harmless [0, 1) range so the shared kernels below
    # stay warning-free; their output is overwritten with `initial`.
    min_pos = np.where(pos_mask, values, np.inf).min(axis=1)
    max_val = values.max(axis=1)
    lo = np.log(np.where(valid, min_pos, 1.0))
    hi = np.log(np.where(valid, max_val, np.e))
    valid &= (hi - lo) >= 1e-9
    lo = np.where(valid, lo, 0.0)
    hi = np.where(valid, hi, 1.0)
    step = (hi - lo) / n_bins
    # edges: same arithmetic as the scalar code's arange * step + lo
    edges = np.arange(0, n_bins + 1, dtype=np.float64) * step[:, None]
    edges += lo[:, None]
    edges[:, -1] = hi
    # bin index per element: arithmetic guess, then an exact fixed-point
    # correction against the edges — the stable point is the unique bin
    # with edges[j] <= x < edges[j+1] (top edge folded into the last bin),
    # i.e. precisely searchsorted(edges, x, 'right') - 1 with the clamp.
    use = pos_mask if valid.all() else pos_mask & valid[:, None]
    if logs is None:
        logs = np.log(np.where(use, values,
                               np.where(valid, min_pos, 1.0)[:, None]))
    elif not use.all():
        # unused slots must settle in the correction loop below: park them
        # on lo (their bin is discarded either way)
        logs = np.where(use, logs, lo[:, None])
    idx = ((logs - lo[:, None]) / step[:, None]).astype(np.int64)
    np.clip(idx, 0, n_bins - 1, out=idx)
    # Edge values are recomputed arithmetically (idx * step + lo, with the
    # top edge pinned to hi) instead of gathered from the edges matrix —
    # the identical multiply-then-add order means identical bits, and it
    # avoids two full-size fancy-gather passes per correction round.
    step_col = step[:, None]
    lo_col = lo[:, None]
    hi_col = hi[:, None]
    # full-matrix verify once; each element's fixed-point iteration is
    # independent of every other, so an element that does not move here is
    # settled for good and later rounds only touch the movers (normally a
    # handful of edge-straddling samples, not the whole matrix)
    idx_f = idx.astype(np.float64)
    at = idx_f * step_col
    at += lo_col
    nxt = (idx_f + 1.0) * step_col
    nxt += lo_col
    is_last = idx == n_bins - 1
    np.copyto(nxt, hi_col, where=is_last)
    dec = logs < at
    inc = (nxt <= logs) & ~dec & ~is_last
    if dec.any() or inc.any():
        idx -= dec
        idx += inc
        rows, cols = np.nonzero(dec | inc)
        logs_e = logs[rows, cols]
        step_e = step[rows]
        lo_e = lo[rows]
        hi_e = hi[rows]
        idx_e = idx[rows, cols]
        for _ in range(1 + n_bins):
            idx_ef = idx_e.astype(np.float64)
            at_e = idx_ef * step_e
            at_e += lo_e
            nxt_e = (idx_ef + 1.0) * step_e
            nxt_e += lo_e
            np.copyto(nxt_e, hi_e, where=idx_e == n_bins - 1)
            dec_e = logs_e < at_e
            inc_e = (nxt_e <= logs_e) & ~dec_e & (idx_e < n_bins - 1)
            if not dec_e.any() and not inc_e.any():
                break
            idx_e -= dec_e
            idx_e += inc_e
        else:
            return None
        idx[rows, cols] = idx_e
    # histogram per row: masked elements go to a discard bin per row
    # (`idx` is dead after this, so alias it when nothing is discarded)
    bins = idx if use is pos_mask and use.all() else np.where(use, idx, n_bins)
    bins += np.arange(n_rows)[:, None] * (n_bins + 1)
    hist = np.bincount(bins.ravel(), minlength=n_rows * (n_bins + 1))
    hist = hist.reshape(n_rows, n_bins + 1)[:, :n_bins]
    total = np.where(valid, pos_count, 1)
    centers = 0.5 * (edges[:, :-1] + edges[:, 1:])
    w_cum = np.cumsum(hist, axis=1)
    mass_cum = np.cumsum(hist * centers, axis=1)
    mass_total = mass_cum[:, -1:]
    w1 = w_cum[:, :-1] / total[:, None]
    w0 = 1.0 - w1
    mu1 = mass_cum[:, :-1] / np.maximum(w_cum[:, :-1], 1)
    mu0 = (mass_total - mass_cum[:, :-1]) / np.maximum(
        total[:, None] - w_cum[:, :-1], 1)
    score = w0 * w1 * (mu0 - mu1) ** 2
    k = np.argmax(score, axis=1)
    rows = np.arange(n_rows)
    best = score[rows, k]
    thr = np.exp(edges[rows, k + 1])
    return np.where(valid & (best > 0), thr, float(initial))


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
        so *history* may arrive in any permutation of the window.
        """
        # Otsu needs both modes (noise and gesture) in view to be
        # meaningful; hold the initial threshold until a second of data has
        # accumulated.
        if history.size < self.config.sample_rate_hz:
            return None
        # The noise floor is estimated from the 25th percentile: even with a
        # heavy gesture duty cycle most history samples are quiet, so this
        # quantile tracks the noise mode and never creeps up with gestures.
        noise_level = fast_quantile(history, 0.25)
        floor = max(self.config.threshold_floor_factor * noise_level, 1e-9)
        otsu = otsu_threshold(history,
                              n_bins=self.config.otsu_bins,
                              initial=self.config.initial_threshold)
        if otsu > 100.0 * floor:
            # Otsu split inside the gesture mode (e.g. the history holds
            # mostly strong gestures); fall back to the noise-based floor.
            return floor
        return max(otsu, floor)

    def _refresh_batch(self, windows: np.ndarray,
                       logs: np.ndarray | None = None) -> np.ndarray | None:
        """Vectorized :meth:`_refresh_from` over full history windows.

        *windows* is ``(R, W)`` with ``W == history_samples`` (callers
        route partial windows through the scalar path); *logs*, when
        given, is the matching window view over the precomputed
        elementwise log of the history (see :func:`_otsu_batch`).
        Returns the ``(R,)`` refreshed thresholds, bit-identical to
        calling :meth:`_refresh_from` on each row, or ``None`` when a row
        needs the scalar fallback (non-finite values, degenerate
        binning).

        Each elementwise step reuses the exact scalar expressions, so
        per-element bits match; the reductions involved (order
        statistics, histogram counts, min/max) are order- and
        batch-independent, which is what makes one fused pass over all
        refresh points of a block legal.
        """
        if not np.all(np.isfinite(windows)):
            return None
        n_rows, width = windows.shape
        config = self.config
        # fast_quantile(history, 0.25) per row: partition at the two
        # bracketing order statistics, numpy's lesser/greater-gamma lerp
        virtual = 0.25 * (width - 1)
        lo_i = int(virtual)
        hi_i = min(lo_i + 1, width - 1)
        gamma = virtual - lo_i
        part = np.partition(windows, (lo_i, hi_i), axis=1)
        below = part[:, lo_i]
        above = part[:, hi_i]
        diff = above - below
        if gamma >= 0.5:
            noise = above - diff * (1.0 - gamma)
        else:
            noise = below + diff * gamma
        floor = np.maximum(config.threshold_floor_factor * noise, 1e-9)
        # with precomputed logs the values must stay window-ordered so the
        # elementwise log lines up; without, reuse the partition leftovers
        # (every reduction inside is order-independent either way)
        otsu = _otsu_batch(part if logs is None else windows,
                           config.otsu_bins,
                           config.initial_threshold, logs=logs)
        if otsu is None:
            return None
        return np.where(otsu > 100.0 * floor, floor,
                        np.maximum(otsu, floor))

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
        accumulate, every threshold refresh of the block in one batched
        Otsu, and the open/pending/gap state machine fast-forwarding
        over quiet spans.  Besides the finished segments (with their
        block offsets), the returned :class:`BlockSegmentation` exposes
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

        # Pass 2 — threshold refreshes, batched. Refresh offsets are a
        # fixed cadence; every refresh window is a tail of (prior ring
        # content ++ envelope values), so all full windows of the block can
        # be gathered into one matrix and pushed through the vectorized
        # refresh in a single shot. Partial windows (cold start) and rows
        # the batch declines go through the scalar path unchanged.
        first_refresh = refresh_every - 1 - since
        refreshed_thresholds: dict[int, float | None] = {}
        offsets: list[int] = []
        if first_refresh < n:
            if hist_len < hist_size:
                prior = hist[:hist_len]
            elif hist_pos == 0:
                prior = hist
            else:
                prior = np.concatenate([hist[hist_pos:], hist[:hist_pos]])
            full_hist = np.concatenate([prior, env_arr])
            offsets = list(range(max(0, first_refresh), n, refresh_every))
            ends = [hist_len + off + 1 for off in offsets]
            full_rows = [(off, end) for off, end in zip(offsets, ends)
                         if end >= hist_size]
            batched: np.ndarray | None = None
            if full_rows:
                starts = np.asarray([end - hist_size
                                     for _, end in full_rows])
                windows = np.lib.stride_tricks.sliding_window_view(
                    full_hist, hist_size)[starts]
                # one log per history sample instead of one per window
                # element: refresh windows overlap almost entirely, and
                # the log is elementwise, so the bits are unchanged
                log_hist = np.log(np.where(full_hist > 0.0, full_hist, 1.0))
                log_windows = np.lib.stride_tricks.sliding_window_view(
                    log_hist, hist_size)[starts]
                batched = self._refresh_batch(windows, logs=log_windows)
            if batched is not None:
                for (off, _), thr in zip(full_rows, batched):
                    refreshed_thresholds[off] = float(thr)
            for off, end in zip(offsets, ends):
                if off not in refreshed_thresholds:
                    window = full_hist[max(0, end - hist_size):end]
                    refreshed_thresholds[off] = self._refresh_from(window)

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
        if refreshed_thresholds:
            thr_vals: list[float] = []
            span_lens: list[int] = []
            prev = 0
            cur_thr = threshold
            for off in offsets:
                span_lens.append(off - prev)
                thr_vals.append(cur_thr)
                new_thr = refreshed_thresholds[off]
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
