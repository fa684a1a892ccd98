"""Golden event-trace equivalence: the pipeline against frozen streams.

Two locks, mirroring ``test_golden_traces.py``:

* **regression** — per-frame :meth:`AirFinger.feed` (a one-frame
  ``feed_block``) must keep reproducing the committed event traces
  (``tests/golden/stream_traces.json``) exactly, across clean and
  faulted streams (frame drops, a dead photodiode, saturation, long
  gaps), and so must the parent's per-frame engine kept in
  :mod:`tests.golden.stream_reference`;
* **equivalence** — :meth:`AirFinger.feed_block` must reproduce the same
  traces bit-for-bit at every block grouping, including sizes that split
  mid-gesture and mid-gap.

Comparison is on ``repr`` lines: every event is a flat dataclass of
ints/floats/strings and ``repr(float)`` is shortest-round-trip, so equal
lines mean equal bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import AirFinger
from repro.core.sbc import BLOCK_CROSSOVER
from tests.golden.stream_cases import (
    STREAM_CASES,
    build_stream_cases,
    load_committed_traces,
    trace_events,
)
from tests.golden.stream_reference import ReferenceAirFinger

# 1 and 10 (the serving batch) and the sizes either side of the crossover
# pin both the per-sample replay and the numpy passes of every stage
BLOCK_SIZES = tuple(sorted({1, 2, 7, 10, BLOCK_CROSSOVER - 1,
                            BLOCK_CROSSOVER, 64, 256, 4096}))


@pytest.fixture(scope="module")
def golden_streams():
    return dict(build_stream_cases()), load_committed_traces()


class TestGoldenRegression:
    def test_committed_file_covers_all_cases(self, golden_streams):
        cases, committed = golden_streams
        assert sorted(committed) == sorted(cases)

    def test_scalar_reproduces_committed_traces(self, golden_streams):
        cases, committed = golden_streams
        for name, frames in cases.items():
            assert trace_events(frames) == committed[name], (
                f"per-frame feed drifted on golden stream {name!r}")

    def test_reference_reproduces_committed_traces(self, golden_streams):
        cases, committed = golden_streams
        for name, frames in cases.items():
            engine = ReferenceAirFinger()
            events = [e for f in frames for e in engine.feed(f)]
            events += engine.flush()
            assert [repr(e) for e in events] == committed[name], (
                f"the reference engine drifted on golden stream {name!r}")

    def test_reference_reproduces_committed_traces_under_compensated_sum(
            self, golden_streams, compensated_sum):
        """The reference sums each frame's channels left to right from
        0.0, as the engine's block pass does, whatever ``sum()`` does
        (CPython 3.12 compensates it): same events, same ΔRSS² bits."""
        cases, committed = golden_streams
        for name, frames in cases.items():
            reference = ReferenceAirFinger()
            events = [e for f in frames for e in reference.feed(f)]
            engine = AirFinger()
            engine.feed_block(frames)
            _, reference_delta = reference._history()
            _, engine_delta = engine._history()
            assert (reference_delta.view(np.uint64).tolist()
                    == engine_delta.view(np.uint64).tolist()), (
                f"ΔRSS² drifted on golden stream {name!r}")
            events += reference.flush()
            assert [repr(e) for e in events] == committed[name], (
                f"the reference engine drifted on golden stream {name!r}")

    def test_corpus_spans_the_event_vocabulary(self, golden_streams):
        _, committed = golden_streams
        kinds = {line.split("(")[0]
                 for lines in committed.values() for line in lines}
        assert {"SegmentEvent", "ScrollUpdate", "StreamGap",
                "ChannelMaskEvent"} <= kinds

    def test_faulted_cases_are_actually_faulted(self, golden_streams):
        cases, _ = golden_streams
        clean_n = len(cases["clean_mixed"])
        assert clean_n > 0
        for name, _, _, _, schedule in STREAM_CASES:
            if schedule is not None:
                assert schedule.active, name


class TestBlockEquivalence:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_block_mode_matches_committed_traces(self, golden_streams,
                                                 block_size):
        cases, committed = golden_streams
        for name, frames in cases.items():
            got = trace_events(frames, block_size=block_size)
            assert got == committed[name], (
                f"feed_block(block_size={block_size}) diverged from the "
                f"golden trace on {name!r}")
