"""Metric-fidelity and single-path pins for ``AirFinger.feed_block``.

``feed`` is a one-frame ``feed_block``, so every input goes through one
ingestion path.  Two classes of silent corruption are locked out here:

* **deadline accounting** — ``pipeline.deadline_miss`` counts late
  *calls*: one slow block is one miss, not ``m`` independent misses, and
  a call is late when it takes more than its frames' share of the
  100 Hz budget.  Per-frame ``feed`` is one call per frame, so there it
  counts late frames.
* **no hidden fallback** — the inputs that used to drop to a per-frame
  path (a sampling tracer, gap and stale stretch heads) go through the
  block path and book the same events, state, counters and histogram
  sample counts as the parent's per-frame engine
  (:mod:`tests.golden.stream_reference`); ragged channel counts and a
  mid-stream channel-count change, which the guard-off engine once took
  as runs of equal width, are refused with ``ValueError``, guard on or
  off, before any frame of the call is ingested.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.stream import RssFrame, stream_frames
from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, Tracer
from tests.golden.stream_reference import ReferenceAirFinger, books


@pytest.fixture(scope="module")
def short_stream(generator):
    """A short clean capture replayed in every test of this module."""
    stream = generator.stream(0, ["click", "circle"], idle_s=0.4,
                              lead_in_s=0.5)
    return list(stream_frames(stream.recording))


def _engine(frames_unused=None, **kwargs) -> tuple[AirFinger, MetricsRegistry]:
    registry = MetricsRegistry()
    engine = AirFinger(metrics=registry, tracer=Tracer(sample=0.0), **kwargs)
    return engine, registry


def _reference(**kwargs) -> tuple[ReferenceAirFinger, MetricsRegistry]:
    registry = MetricsRegistry()
    engine = ReferenceAirFinger(metrics=registry, tracer=Tracer(sample=0.0),
                                **kwargs)
    return engine, registry


def _counter(registry: MetricsRegistry, key: str) -> float:
    return registry.snapshot().counters.get(key, 0.0)


def _per_frame(engine, frames) -> list[str]:
    return [repr(e) for f in frames for e in engine.feed(f)]


class TestBlockDeadlineAccounting:
    def test_block_miss_counts_blocks_not_frames(self, short_stream):
        """A slow block is ONE miss, however many frames it carries."""
        engine, registry = _engine()
        engine._deadline_s = -1.0        # every call is "late"
        block_size = 64
        engine.feed_frames(short_stream, block_size=block_size)
        n_blocks = -(-len(short_stream) // block_size)
        assert _counter(registry, "pipeline.deadline_miss") == n_blocks

    def test_fast_block_counts_nothing(self, short_stream):
        engine, registry = _engine()
        engine._deadline_s = float("inf")   # nothing can miss
        engine.feed_frames(short_stream, block_size=128)
        assert _counter(registry, "pipeline.deadline_miss") == 0

    def test_scalar_path_still_counts_per_frame(self, short_stream):
        """Per-frame ``feed`` is one call per frame: a late call is a
        late frame."""
        engine, registry = _engine()
        engine._deadline_s = -1.0        # every frame is "late"
        for frame in short_stream[:50]:
            engine.feed(frame)
        assert _counter(registry, "pipeline.deadline_miss") == 50

    def test_frame_histogram_counts_stay_comparable(self, short_stream):
        """The amortized frame histogram still sees one sample per frame."""
        engine, registry = _engine()
        engine.feed_frames(short_stream, block_size=256)
        snap = registry.snapshot()
        assert (snap.histograms["pipeline.frame_seconds"]["count"]
                == len(short_stream))

    def test_late_call_is_marked_on_its_span(self, short_stream):
        tracer = Tracer(sample=1.0)
        engine = AirFinger(metrics=MetricsRegistry(), tracer=tracer)
        engine._deadline_s = -1.0
        engine.feed_block(short_stream[:10])
        (block,) = [s for s in tracer.finished_spans()
                    if s.name == "pipeline.block"]
        (miss,) = [e for e in block.events if e.name == "deadline_miss"]
        assert miss.attrs["frames"] == 10
        assert miss.attrs["frame_index"] == 0
        assert miss.attrs["stage"] in ("prefilter_sbc", "segmentation")


class TestBlockFallbackCounter:
    """The inputs that used to fall back to a per-frame path, and the
    fallback counter that used to book them, which is gone."""

    def test_tracing_fallback_counts_and_marks_span(self, short_stream):
        """A sampling tracer no longer forces per-frame ingestion: the
        call is one ``pipeline.block`` span with stage children, under
        the caller's span, and its events are the reference's."""
        tracer = Tracer(sample=1.0)
        engine = AirFinger(metrics=MetricsRegistry(), tracer=tracer)
        with tracer.span("test.dispatch") as outer:
            events = engine.feed_block(short_stream)
        spans = tracer.finished_spans()
        (block,) = [s for s in spans if s.name == "pipeline.block"]
        assert block.parent_id == outer.span_id
        assert block.attrs == {"index": 0, "frames": len(short_stream)}
        stages = {s.attrs["stage"] for s in spans
                  if s.name == "pipeline.stage"
                  and s.parent_id == block.span_id}
        assert {"prefilter_sbc", "segmentation", "dispatch"} <= stages
        assert not [e for s in spans for e in s.events
                    if e.name == "block_fallback"]
        reference, _ = _reference()
        assert [repr(e) for e in events] == _per_frame(reference,
                                                       short_stream)

    def test_tracing_fallback_without_enclosing_span_emits_point_span(self):
        """Without an enclosing span the block span is a root span."""
        tracer = Tracer(sample=1.0)
        engine = AirFinger(metrics=MetricsRegistry(), tracer=tracer)
        frames = [RssFrame(index=i, time_s=i / 100.0, values=(1.0, 2.0))
                  for i in range(4)]
        engine.feed_block(frames)
        spans = tracer.finished_spans()
        (block,) = [s for s in spans if s.name == "pipeline.block"]
        assert block.parent_id is None
        assert "pipeline.block_fallback" not in {s.name for s in spans}

    def test_ragged_channels_fallback(self):
        """A list mixing widths is refused before anything is ingested,
        guard on or off."""
        frames = ([RssFrame(index=i, time_s=i / 100.0, values=(1.0, 2.0))
                   for i in range(5)]
                  + [RssFrame(index=5, time_s=0.05, values=(1.0, 2.0, 3.0))])
        for guard in (True, False):
            engine, registry = _engine(channel_guard=guard)
            _, untouched = _engine(channel_guard=guard)
            with pytest.raises(ValueError,
                               match="disagree on channel count"):
                engine.feed_block(frames)
            assert engine.n_channels is None and engine.frames_fed == 0
            assert books(registry) == books(untouched)
            # the stream's first frame still sets its channel count
            engine.feed_block(frames[5:])
            assert engine.n_channels == 3

    def test_channel_count_change_fallback(self):
        """The first frame sets the stream's channel count; a call with
        another width raises ``ValueError`` and leaves the engine as it
        was, guard on or off."""
        first = [RssFrame(index=i, time_s=i / 100.0, values=(1.0, 2.0, 3.0))
                 for i in range(8)]
        second = [RssFrame(index=8 + i, time_s=(8 + i) / 100.0,
                           values=(1.0, 2.0))
                  for i in range(8)]
        for guard in (True, False):
            engine, registry = _engine(channel_guard=guard)
            engine.feed_block(first)
            before = (engine.stream_position, engine._history(),
                      books(registry))
            with pytest.raises(ValueError,
                               match="frames have 2 channels; this "
                                     "stream's have 3"):
                engine.feed_block(second)
            with pytest.raises(ValueError, match="this stream's have 3"):
                engine.feed(second[0])
            after = (engine.stream_position, engine._history(),
                     books(registry))
            assert repr(after) == repr(before)
            assert engine._prefilter.channels == 3
            # the stream goes on at its own width
            engine.feed_block([RssFrame(index=8, time_s=0.08,
                                        values=(1.0, 2.0, 3.0))])
            assert engine.frames_fed == 9

    def test_vectorized_path_books_no_fallback(self, short_stream):
        """No fallback or block-deadline series exists, whatever the
        input."""
        tracer = Tracer(sample=1.0)
        registry = MetricsRegistry()
        engine = AirFinger(metrics=registry, tracer=tracer,
                           channel_guard=False)
        engine.feed_frames(short_stream, block_size=256)
        with pytest.raises(ValueError, match="channels"):
            engine.feed_block([RssFrame(index=10_000, time_s=100.0,
                                        values=(1.0, 2.0))])
        counters = registry.snapshot().counters
        assert not [k for k in counters
                    if k.startswith(("pipeline.block_fallback",
                                     "pipeline.block_deadline_miss"))]


class TestFeedBlockBoundaryDelegation:
    """Events, counters and histogram sample counts equal the reference
    engine's where a stretch head is not the next frame: empty input,
    gap-opening and stale stretch heads, and fully out-of-order blocks;
    ragged channels mid-list and a width change at a gap head are
    refused."""

    @staticmethod
    def _assert_equivalent(frames_groups) -> None:
        block_engine, registry = _engine()
        reference, ref_registry = _reference()
        got, ref = [], []
        for group in frames_groups:
            got.extend(block_engine.feed_block(group))
            ref.extend(e for f in group for e in reference.feed(f))
        got.extend(block_engine.flush())
        ref.extend(reference.flush())
        assert [repr(e) for e in got] == [repr(e) for e in ref]
        assert books(registry) == books(ref_registry)

    def test_empty_iterable(self):
        engine, _ = _engine()
        assert engine.feed_block([]) == []
        assert engine.feed_block(iter([])) == []
        assert engine.frames_fed == 0

    def test_stretch_head_opens_short_gap(self, short_stream):
        # gap of 5 <= max_gap_samples (10): the head interpolates
        frames = short_stream[:100]
        shifted = [RssFrame(index=f.index + 5, time_s=f.time_s,
                            values=f.values) for f in short_stream[105:300]]
        self._assert_equivalent([frames, shifted])

    def test_stretch_head_opens_long_gap(self, short_stream):
        # gap of 60 > max_gap_samples: StreamGap + flush-reset at the head
        frames = short_stream[:100]
        shifted = [RssFrame(index=f.index, time_s=f.time_s, values=f.values)
                   for f in short_stream[160:400]]
        self._assert_equivalent([frames, shifted])
        # sanity: the long gap really produced a StreamGap on both paths
        engine, _ = _engine()
        events = engine.feed_block(frames + shifted)
        assert any(type(e).__name__ == "StreamGap" for e in events)

    def test_stretch_head_arrives_stale(self, short_stream):
        # a head whose index is already consumed must be dropped by both
        frames = short_stream[:120]
        stale = [short_stream[40]] + short_stream[120:200]
        self._assert_equivalent([frames, stale])

    def test_gap_inside_one_block(self, short_stream):
        frames = short_stream[:80] + [
            RssFrame(index=f.index + 4, time_s=f.time_s, values=f.values)
            for f in short_stream[84:200]]
        self._assert_equivalent([frames])

    def test_ragged_channels_mid_list(self):
        """Guard off, a list whose width changes mid-list is refused
        whole: none of its frames reach the engine."""
        frames = ([RssFrame(index=i, time_s=i / 100.0, values=(5.0, 6.0))
                   for i in range(30)]
                  + [RssFrame(index=30, time_s=0.30, values=(5.0, 6.0, 7.0))]
                  + [RssFrame(index=31 + i, time_s=(31 + i) / 100.0,
                              values=(5.0, 6.0, 7.0))
                     for i in range(30)])
        block_engine, registry = _engine(channel_guard=False)
        reference, ref_registry = _reference(channel_guard=False)
        with pytest.raises(ValueError, match="disagree on channel count"):
            block_engine.feed_block(frames)
        assert block_engine.frames_fed == 0
        # the equal-width head alone matches the reference
        got = block_engine.feed_block(frames[:30])
        assert [repr(e) for e in got] == _per_frame(reference, frames[:30])
        assert books(registry) == books(ref_registry)

    def test_every_frame_out_of_order(self, short_stream):
        frames = short_stream[:150]
        # replay a slice of already-consumed indices, scrambled
        scrambled = [short_stream[i] for i in (120, 80, 40, 110, 5, 77)]
        self._assert_equivalent([frames, scrambled])
        # and directly: every row is stale, so no events and no ingestion
        engine, registry = _engine()
        engine.feed_block(frames)
        fed_before = engine.frames_fed
        assert engine.feed_block(scrambled) == []
        assert engine.frames_fed == fed_before
        assert (_counter(registry, "pipeline.faults.out_of_order")
                == len(scrambled))

    def test_interleaved_delegation_and_fast_path(self, short_stream):
        """Gap head -> fast stretch -> stale frame -> fast stretch."""
        a = short_stream[:90]
        b = [RssFrame(index=f.index + 3, time_s=f.time_s, values=f.values)
             for f in short_stream[93:180]]
        c = [short_stream[10]]
        d = [RssFrame(index=f.index + 3, time_s=f.time_s, values=f.values)
             for f in short_stream[180:320]]
        self._assert_equivalent([a + b + c + d])

    def test_gap_head_changes_channel_count(self):
        """Guard off, a short gap whose head drops a channel is refused
        with its call; the stream goes on at its width, across the now
        long gap, as the reference does."""
        rng = np.random.default_rng(7)

        def frames(first, n, width):
            return [RssFrame(index=first + i, time_s=(first + i) / 100.0,
                             values=tuple((5.0 + rng.normal(0.0, 0.01,
                                                            width)).tolist()))
                    for i in range(n)]

        three, two = frames(0, 40, 3), frames(44, 40, 2)
        back = frames(86, 40, 3)
        engine, registry = _engine(channel_guard=False)
        reference, ref_registry = _reference(channel_guard=False)
        got = engine.feed_block(three)
        with pytest.raises(ValueError, match="frames have 2 channels"):
            engine.feed_block(two)
        got += engine.feed_block(back)
        assert [repr(e) for e in got] == _per_frame(reference,
                                                    three + back)
        assert books(registry) == books(ref_registry)
        assert (engine._history()[1].tolist()
                == reference._history()[1].tolist())


class TestBlockModeNumericSanity:
    def test_histogram_median_tracks_amortized_cost(self, short_stream):
        """Block-amortized semantics: all samples share the block mean."""
        engine, registry = _engine()
        engine.feed_block(short_stream)
        data = registry.snapshot().histograms["pipeline.frame_seconds"]
        assert data["count"] == len(short_stream)
        mean = data["sum"] / data["count"]
        assert np.isfinite(mean) and mean > 0
