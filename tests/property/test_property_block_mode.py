"""Property-based equivalence: ``feed_block`` vs the per-frame reference.

Hypothesis drives randomized streams through every degradation path the
pipeline owns — short gaps (interpolated), long gaps (segmenter flush +
:class:`StreamGap`), out-of-order frames (dropped), bursts that open and
close segments, channels that stick or pin at the top rail (masked and
held), channel-count changes with the guard off, an active tracer — and
asserts that :meth:`AirFinger.feed_block` over arbitrary block splits
produces the exact event sequence, the exact final state and the same
counter values and histogram sample counts as the parent's frame-by-frame
engine (:class:`~tests.golden.stream_reference.ReferenceAirFinger`).
Only the deadline counter differs: the engine counts late calls, the
reference late frames.

Events are compared as ``repr`` lines (flat dataclasses of
ints/floats/strings; ``repr(float)`` is shortest-round-trip, so equal
lines mean equal bits).  Final state is compared both directly (stream
position, envelope carry, threshold, history tails) and behaviorally: the
engines keep consuming a shared tail afterwards and must keep agreeing.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
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
    return repr((
        engine._pos, engine._fed, engine._anchor, engine._last_time_s,
        engine._last_values, tuple(engine._delta),
        tuple(engine._combined_sbc._buffer),
        # the block path keeps quiet rows as lists: compare values
        [tuple(row) for row in engine._raw], engine._hold,
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


def _outcomes(engine, chunks, per_frame: bool) -> list:
    """Per chunk, its event ``repr`` lines — or, once a chunk raises,
    the exception's type and message (and nothing after it)."""
    out = []
    for chunk in chunks:
        try:
            if per_frame:
                events = [e for f in chunk for e in engine.feed(f)]
            else:
                events = engine.feed_block(chunk)
        except ValueError as exc:
            out.append((type(exc).__name__, str(exc)))
            break
        out.append([repr(e) for e in events])
    return out


@given(moves, seeds, block_plans,
       st.lists(st.tuples(st.integers(min_value=1, max_value=120),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_channel_count_changes_with_guard_off(move_list, seed, plan,
                                              stretches):
    """Guard off, the channel count changes mid-stream, so a block may be
    a ragged list.  A segment whose history straddles a change cannot be
    sliced by either engine; both then raise the same ``ValueError`` in
    the same chunk."""
    widths = [w for length, w in stretches for _ in range(length)]
    widths = (widths * (len(move_list) // len(widths) + 1))[:len(move_list)]
    frames = _build_frames(move_list, seed, 1, widths=widths)
    block, ref = _pair(channel_guard=False)
    chunks = _split(frames, plan)
    expected = _outcomes(ref, chunks, per_frame=True)
    assert _outcomes(block, chunks, per_frame=False) == expected
    if not isinstance(expected[-1], tuple):
        _assert_same(block, ref)


# long runs salted with short gaps and stale frames but no long gap, so
# the guard's window survives and its transitions meet bridged gaps
guarded_moves = st.lists(st.sampled_from([1] * 12 + [2, 3, 8, 0, -1]),
                         min_size=300, max_size=400)
# stuck long enough to mask, then healthy long enough to recover
GUARD_FAULTS = ((20, 130, "stuck"), (170, 110, "pinned"))


@given(moves, seeds, block_plans, channel_faults)
@settings(max_examples=25, deadline=None)
def test_traced_blocks_match_reference(move_list, seed, plan, faults):
    """With a sampling tracer: the same events, state and books, one
    ``pipeline.block`` span per call, and the reference's span events
    (``out_of_order``, ``gap_interpolated``, ``stream_gap``,
    ``channel_mask``) in the same order."""
    _assert_traced_match(_build_frames(move_list, seed, 3, faults), plan)


@given(guarded_moves, seeds, block_plans)
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
