"""Columnar serving: a ``frames`` message stays one block end to end.

A message is decoded into one :class:`~repro.acquisition.stream.FrameBlock`,
queued as one chunk and handed to ``feed_block`` in drains of at most
``max_batch_frames`` frames.  Two properties hold that path to the
per-frame contract it replaced:

* whatever the stream (gaps, stale frames, channel faults), however it
  is cut into messages and drains, and however the bytes are split on
  the way in, the events are ``repr``-equal to one in-process
  :meth:`~repro.core.pipeline.AirFinger.feed_frames` replay;
* drop-oldest backpressure over chunks drops exactly the frames a
  per-frame queue (the parent's, modelled here) drops, with the same
  drop counts, the same ``serve.backpressure_drops`` counter and the
  same :class:`~repro.core.events.StreamGap` events downstream.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import StreamGap
from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, Tracer
from repro.serve import ServeConfig, SessionManager, protocol
from tests.property.test_property_block_mode import (
    _build_frames,
    channel_faults,
    moves,
    seeds,
)


def _engine() -> AirFinger:
    return AirFinger(metrics=MetricsRegistry(), tracer=Tracer(sample=0.0))


def _manager(config: ServeConfig) -> SessionManager:
    return SessionManager(config, engine_factory=_engine,
                          metrics=MetricsRegistry(),
                          tracer=Tracer(sample=0.0))


def _cut(items: list, sizes: list[int]) -> list[list]:
    out, i = [], 0
    while i < len(items):
        for size in sizes:
            out.append(items[i:i + size])
            i += size
            if i >= len(items):
                break
    return out


@given(moves, seeds, channel_faults,
       st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                max_size=8),
       st.sampled_from([1, 4, 10, 64, 512]),
       st.lists(st.integers(min_value=1, max_value=300), min_size=1,
                max_size=6),
       st.lists(st.booleans(), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_wire_path_matches_in_process_replay(move_list, seed, faults,
                                             message_sizes, batch, byte_cuts,
                                             drains):
    frames = _build_frames(move_list, seed, 3, faults)
    wire = b"".join(protocol.encode_message(protocol.frames_message(chunk))
                    for chunk in _cut(frames, message_sizes))
    manager = _manager(ServeConfig(max_batch_frames=batch))
    session = manager.open("t0", "dev0")
    decoder = protocol.MessageDecoder()
    events: list = []
    k = 0
    for piece in _cut(list(wire), byte_cuts):
        for message in decoder.feed(bytes(piece)):
            manager.enqueue(session, protocol.decode_frames(message))
            # drain now, or let messages pile up into multi-chunk drains
            if drains[k % len(drains)]:
                events += manager.dispatch(session)
            k += 1
    events += manager.close(session)
    assert session.frames_in == len(frames)
    assert ([repr(e) for e in events]
            == [repr(e) for e in _engine().feed_frames(frames)])


@given(st.lists(st.one_of(
           st.tuples(st.just("enqueue"), st.integers(min_value=1,
                                                     max_value=30),
                     st.integers(min_value=0, max_value=12)),
           st.tuples(st.just("dispatch"))), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=25))
@settings(max_examples=60, deadline=None)
def test_chunked_drop_oldest_matches_per_frame_queue(ops, max_queue,
                                                     max_batch):
    frames = _build_frames([1] * 900, 11, 3)
    manager = _manager(ServeConfig(max_queue_frames=max_queue,
                                   max_batch_frames=max_batch))
    session = manager.open("t0", "dev0")
    # the parent's queue: one entry per frame, the oldest dropped first
    model: list = []
    reached: list = []
    dropped_total = 0
    cursor = 0
    events: list = []
    for op in ops:
        if op[0] == "enqueue":
            _, n, lost = op
            cursor += lost
            sent = frames[cursor:cursor + n]
            cursor += n
            model.extend(sent)
            overflow = max(0, len(model) - max_queue)
            del model[:overflow]
            dropped_total += overflow
            assert manager.enqueue(session, sent) == overflow
        else:
            events += manager.dispatch(session)
            reached += model[:max_batch]
            del model[:max_batch]
        assert [f for block, _ in session.queue
                for f in block.frames()] == model
        assert session.pending == len(model)
    reached += model
    events += manager.close(session)
    assert session.dropped == dropped_total
    counters = manager.metrics.snapshot().counters
    assert counters.get('serve.backpressure_drops{tenant="t0"}',
                        0.0) == dropped_total
    expected = _engine().feed_frames(reached)
    assert ([repr(e) for e in events if isinstance(e, StreamGap)]
            == [repr(e) for e in expected if isinstance(e, StreamGap)])
    assert [repr(e) for e in events] == [repr(e) for e in expected]
