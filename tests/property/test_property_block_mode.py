"""Property-based equivalence: ``feed_block`` vs the per-frame reference.

Hypothesis drives randomized streams through every degradation path the
pipeline owns — short gaps (interpolated), long gaps (segmenter flush +
:class:`StreamGap`), out-of-order frames (dropped), bursts that open and
close segments, channels that stick or pin at the top rail (masked and
held), an active tracer — and asserts that :meth:`AirFinger.feed_block` over arbitrary block splits
produces the exact event sequence, the exact final state and the same
counter values and histogram sample counts as the parent's frame-by-frame
engine (:class:`~tests.golden.stream_reference.ReferenceAirFinger`).
Only the deadline counter differs: the engine counts late calls, the
reference late frames.  A channel-count change, which the parent's
guard-off engine took as a restart, is refused with its call.

Events are compared as ``repr`` lines (flat dataclasses of
ints/floats/strings; ``repr(float)`` is shortest-round-trip, so equal
lines mean equal bits).  Final state is compared both directly (stream
position, envelope carry, threshold, history tails) and behaviorally: the
engines keep consuming a shared tail afterwards and must keep agreeing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acquisition.stream import RssFrame
from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, Tracer
from tests.golden.stream_reference import ReferenceAirFinger, books

# mostly contiguous advances, salted with short gaps (interpolated), long
# gaps (flush + StreamGap) and stale indices (out-of-order drops)
moves = st.lists(
    st.sampled_from([1] * 12 + [2, 3, 8, 60, 0, -1, -7]),
    min_size=1, max_size=250)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
channel_counts = st.integers(min_value=2, max_value=4)
block_plans = st.lists(st.integers(min_value=1, max_value=64),
                       min_size=1, max_size=12)
# (first frame, length, kind) of a channel fault: stuck at one code, or
# pinned at the 10-bit ADC's top code
channel_faults = st.lists(
    st.tuples(st.integers(min_value=0, max_value=240),
              st.integers(min_value=20, max_value=200),
              st.sampled_from(["stuck", "pinned"])),
    max_size=3)


def _build_frames(move_list, seed, n_channels, faults=(), widths=None):
    """A deterministic frame stream with bursts that cross the threshold.

    *faults* stick or pin channel ``k % n_channels`` of the *k*-th fault
    over its frame range; *widths*, when given, is the channel count of
    each frame (the first *n_channels* values, or more) instead.
    """
    rng = np.random.default_rng(seed)
    frames = []
    index = -1
    for i, move in enumerate(move_list):
        index = max(0, index + move)
        width = n_channels if widths is None else widths[i]
        values = rng.uniform(0.0, 30.0, size=width)
        if rng.random() < 0.2:  # an energy burst the segmenter can latch
            values += rng.uniform(300.0, 3000.0)
        for k, (first, length, kind) in enumerate(faults):
            if first <= i < first + length:
                values[k % width] = 17.0 if kind == "stuck" else 1023.0
        frames.append(RssFrame(
            index=index, time_s=index * 0.01,
            values=tuple(float(v) for v in values)))
    return frames


def _pair(tracer=None, **kwargs):
    """``(engine, reference)``, each with its own registry."""
    def tracer_for():
        return tracer() if tracer is not None else Tracer(sample=0.0)
    engine = AirFinger(metrics=MetricsRegistry(), tracer=tracer_for(),
                       **kwargs)
    reference = ReferenceAirFinger(metrics=MetricsRegistry(),
                                   tracer=tracer_for(), **kwargs)
    return engine, reference


def _scalar_trace(engine, frames):
    events = []
    for frame in frames:
        events.extend(engine.feed(frame))
    return [repr(e) for e in events]


def _state_fingerprint(engine):
    seg = engine._segmenter
    guard = engine._guard
    rows, deltas = engine._history()
    return repr((
        engine._pos, engine._fed, engine._anchor, engine._last_time_s,
        engine._last_values, deltas.tolist(),
        tuple(engine._combined_sbc._buffer),
        rows.tolist(), engine._hold,
        seg._index, seg._threshold, seg._env_sum, seg._open_start,
        seg._pending, seg._gap, seg._since_refresh, seg._hist_len,
        None if guard is None else (
            guard.mask, guard._since_check, guard._healthy_streak,
            guard.window_rows().tolist(),
            [guard.hold_value(c) for c in range(guard.n_channels)]),
    ))


def _split(frames, plan):
    chunks = []
    i = 0
    while i < len(frames):
        for size in plan:
            chunks.append(frames[i:i + size])
            i += size
            if i >= len(frames):
                break
    return chunks


def _assert_same(engine, reference):
    assert _state_fingerprint(engine) == _state_fingerprint(reference)
    assert books(engine.metrics) == books(reference.metrics)


@given(moves, seeds, channel_counts, block_plans, channel_faults)
@settings(max_examples=40, deadline=None)
def test_block_splits_preserve_events_and_state(move_list, seed,
                                                n_channels, plan, faults):
    frames = _build_frames(move_list, seed, n_channels, faults)
    block, ref = _pair()
    ref_trace = _scalar_trace(ref, frames)

    got = []
    for chunk in _split(frames, plan):
        got.extend(block.feed_block(chunk))
    assert [repr(e) for e in got] == ref_trace
    _assert_same(block, ref)

    # behavioral state check: both engines keep consuming a shared tail
    tail = _build_frames([1] * 40, seed + 1, n_channels)
    base = frames[-1].index + 1 if frames else 0
    tail = [RssFrame(index=f.index + base, time_s=(f.index + base) * 0.01,
                     values=f.values) for f in tail]
    assert _scalar_trace(block, tail) == _scalar_trace(ref, tail)
    assert ([repr(e) for e in block.flush()]
            == [repr(e) for e in ref.flush()])
    _assert_same(block, ref)


@given(moves, seeds, st.integers(min_value=1, max_value=80))
@settings(max_examples=30, deadline=None)
def test_feed_frames_block_size_equivalence(move_list, seed, block_size):
    frames = _build_frames(move_list, seed, 3)
    block, ref = _pair()
    ref_trace = _scalar_trace(ref, frames)
    ref_trace += [repr(e) for e in ref.flush()]

    got = block.feed_frames(frames, block_size=block_size)
    assert [repr(e) for e in got] == ref_trace
    _assert_same(block, ref)


@given(moves, seeds, block_plans,
       st.lists(st.tuples(st.integers(min_value=1, max_value=120),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_channel_count_changes_with_guard_off(move_list, seed, plan,
                                              stretches):
    """Guard off, the channel count changes mid-stream, so a block may be
    a ragged list.  The first frame sets the stream's count: up to the
    first chunk holding another, the engine matches the reference; that
    chunk raises ``ValueError`` and changes nothing."""
    widths = [w for length, w in stretches for _ in range(length)]
    widths = (widths * (len(move_list) // len(widths) + 1))[:len(move_list)]
    frames = _build_frames(move_list, seed, 1, widths=widths)
    block, ref = _pair(channel_guard=False)
    for chunk in _split(frames, plan):
        if any(len(f.values) != widths[0] for f in chunk):
            before = _state_fingerprint(block), books(block.metrics)
            with pytest.raises(ValueError, match="channel"):
                block.feed_block(chunk)
            assert (_state_fingerprint(block), books(block.metrics)) == before
            break
        assert ([repr(e) for e in block.feed_block(chunk)]
                == _scalar_trace(ref, chunk))
    _assert_same(block, ref)


# stuck long enough to mask, then healthy long enough to recover
GUARD_FAULTS = ((20, 130, "stuck"), (170, 110, "pinned"))


def _fresh_in_faults(move_list):
    """*move_list* with each stale move (0, -1) inside a GUARD_FAULTS
    window made a step of 1; its gaps stay.  Stale frames are dropped
    before the guard, so a run of them inside a window can leave too few
    faulted codes in the guard's window for it to fire, rightly."""
    return [1 if move < 1 and any(first <= i < first + length
                                  for first, length, _ in GUARD_FAULTS)
            else move
            for i, move in enumerate(move_list)]


# long runs salted with short gaps and stale frames but no long gap, so
# the guard's window survives and its transitions meet bridged gaps
guarded_moves = st.lists(st.sampled_from([1] * 12 + [2, 3, 8, 0, -1]),
                         min_size=300, max_size=400).map(_fresh_in_faults)
# a stream hypothesis found before the stale moves were kept out of the
# windows: only 95 stuck and 87 pinned frames reached the guard
STALE_IN_FAULTS = ([1] * 115 + [0] * 13 + [-1] * 11 + [1] * 118 + [-1] * 11
                   + [1] * 10 + [0, 1, 1, 0, 8, -1] + [1] * 16)


@given(moves, seeds, block_plans, channel_faults)
@settings(max_examples=25, deadline=None)
def test_traced_blocks_match_reference(move_list, seed, plan, faults):
    """With a sampling tracer: the same events, state and books, one
    ``pipeline.block`` span per call, and the reference's span events
    (``out_of_order``, ``gap_interpolated``, ``stream_gap``,
    ``channel_mask``) in the same order."""
    _assert_traced_match(_build_frames(move_list, seed, 3, faults), plan)


@given(guarded_moves, seeds, block_plans)
@example(_fresh_in_faults(STALE_IN_FAULTS), 0, [1])
@settings(max_examples=15, deadline=None)
def test_guard_transitions_across_gaps(move_list, seed, plan):
    """Channels the guard masks and restores while short gaps are bridged
    and stale frames dropped around them, traced."""
    frames = _build_frames(move_list, seed, 3, GUARD_FAULTS)
    masks = _assert_traced_match(frames, plan)
    assert masks, "the guard never fired"


def _assert_traced_match(frames, plan) -> list:
    """Feed *frames* traced, split by *plan*, into an engine and the
    reference; returns the ``channel_mask`` span events."""
    block, ref = _pair(tracer=lambda: Tracer(sample=1.0))
    ref_trace = _scalar_trace(ref, frames)
    chunks = _split(frames, plan)
    got = [repr(e) for chunk in chunks for e in block.feed_block(chunk)]
    assert got == ref_trace
    _assert_same(block, ref)

    def span_events(engine, name):
        spans = [s for s in engine.tracer.finished_spans() if s.name == name]
        return spans, [(e.name, e.attrs) for s in spans for e in s.events
                       if e.name != "deadline_miss"]

    blocks, block_marks = span_events(block, "pipeline.block")
    _, ref_marks = span_events(ref, "pipeline.frame")
    assert len(blocks) == len(chunks)
    assert block_marks == ref_marks
    return [mark for mark in block_marks if mark[0] == "channel_mask"]
