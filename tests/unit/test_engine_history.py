"""The engine's history rings against the reference engine's deques.

:class:`~repro.core.pipeline.AirFinger` keeps its prefiltered rows and
ΔRSS² values in two numpy rings written once per block; the handlers
that run inside a block slice that block's rows from its own arrays.
The parent kept two deques, appended frame by frame, and the reference
engine (:mod:`tests.golden.stream_reference`) still does.  Both engines
are probed at every slice a handler takes and at every call boundary,
with ranges that wrap the ring, reach past either end of the history
and cross the block the engine is consuming; every probe must return
the same bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.stream import RssFrame
from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, Tracer
from tests.golden.stream_cases import build_stream_cases
from tests.golden.stream_reference import ReferenceAirFinger

BLOCK_SIZES = (1, 10, 256, 4096)


def _bits(array: np.ndarray) -> tuple:
    return array.shape, array.view(np.uint64).ravel().tolist()


def _probe(engine) -> tuple:
    """The history's bits over ranges around the engine's position."""
    pos = engine._pos
    size = engine._history_len
    ranges = [(engine._history_offset(), pos), (pos - size - 7, pos + 5),
              (pos - 1, pos), (pos - 60, pos - 3), (pos - 450, pos - 200),
              (pos - size + 1, pos - size + 40), (pos + 2, pos + 9)]
    cls = type(engine)
    return pos, [(start, end, _bits(cls._slice_raw(engine, start, end)),
                  _bits(cls._slice_delta(engine, start, end)))
                 for start, end in ranges]


def _probed_run(engine, chunks, per_frame: bool) -> list:
    """Feed *chunks*; probe at each slice a handler takes and after each
    call, and flush."""
    log = []
    slice_raw = engine._slice_raw

    def probed(start, end):
        log.append(("slice", start, end, _probe(engine)))
        return slice_raw(start, end)

    engine._slice_raw = probed
    for chunk in chunks:
        if per_frame:
            for frame in chunk:
                engine.feed(frame)
        else:
            engine.feed_block(chunk)
        log.append(("call", _probe(engine)))
    engine.flush()
    log.append(("flush", _probe(engine)))
    return log


def _with_long_gap(frames: list) -> list:
    """*frames*, then a gap too long to bridge, then *frames* again."""
    jump = frames[-1].index + 80
    return frames + [RssFrame(index=f.index + jump, time_s=f.time_s + 10.0,
                              values=f.values) for f in frames]


@pytest.fixture(scope="module")
def streams():
    cases = dict(build_stream_cases())
    # clean_mixed wraps the 584-row ring twice over; long_gap resets the
    # history three times; faulted cases mask channels and bridge gaps
    return {"clean_mixed": cases["clean_mixed"],
            "long_gap": cases["long_gap"],
            "frame_drop": cases["frame_drop"],
            "reset_mid_stream": _with_long_gap(cases["clean_mixed"][:700])}


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("name", ["clean_mixed", "long_gap", "frame_drop",
                                  "reset_mid_stream"])
def test_ring_slices_equal_reference_deques(streams, name, block_size):
    frames = streams[name]
    chunks = [frames[i:i + block_size]
              for i in range(0, len(frames), block_size)]

    def build(cls):
        return cls(metrics=MetricsRegistry(), tracer=Tracer(sample=0.0))

    got = _probed_run(build(AirFinger), chunks, per_frame=False)
    expected = _probed_run(build(ReferenceAirFinger), chunks,
                           per_frame=True)
    assert [entry[0] for entry in got].count("slice") > 10
    assert got == expected


def test_rings_are_written_once_per_block(streams):
    """Inside a block the rings still hold the previous call's rows: the
    handlers read the block's own, and the block lands afterwards."""
    frames = streams["clean_mixed"]
    engine = AirFinger(metrics=MetricsRegistry(), tracer=Tracer(sample=0.0))
    engine.feed_block(frames[:100])
    ring = engine._raw.copy()
    seen = []
    slice_raw = engine._slice_raw

    def spy(start, end):
        seen.append(np.array_equal(engine._raw, ring))
        return slice_raw(start, end)

    engine._slice_raw = spy
    engine.feed_block(frames[100:400])
    assert seen and all(seen)
    assert not np.array_equal(engine._raw, ring)
