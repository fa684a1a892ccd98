"""Fuzzing the serve wire protocol: outside input only ever gets refused.

Everything a remote peer controls — raw bytes on a stream or in a
datagram, and any JSON object once decoded — must either be accepted
or refused with :class:`~repro.serve.protocol.ProtocolError`.  Any
other exception would escape a transport's reader (a dropped
connection, a dead datagram reader) instead of becoming an ``error``
reply.  Two kinds of input:

* raw bytes, split anywhere, fed to :class:`MessageDecoder` and
  :func:`decode_datagram` — which also must never buffer more than one
  maximal message;
* arbitrary JSON objects (wrong types, missing fields, ``1e999``, huge
  ints, nested junk) fed to :func:`decode_frames`, :func:`check_hello`
  and the :class:`~repro.serve.service.SessionService` message switch,
  through an in-memory peer with no sockets.
"""

from __future__ import annotations

import asyncio
import json
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, Tracer
from repro.serve import ServeConfig, SessionManager, protocol
from repro.serve.service import SessionService
from repro.serve.udp import decode_datagram

INF = float("inf")

#: numbers JSON decoding can hand over: ``1e999`` decodes to ``inf``,
#: digit runs to arbitrarily large ints
numbers = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from([INF, -INF, 10**400, -10**400, 1e308, -0.0]))
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=8))
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=8), inner,
                                            max_size=4)),
    max_leaves=12)
#: ``frames`` payloads: mostly frame-shaped triples, with junk in them
frame_lists = st.one_of(
    json_values,
    st.lists(st.tuples(json_values, json_values,
                       st.one_of(json_values, st.lists(numbers,
                                                       max_size=4)))
             .map(list), max_size=4))

#: JSON texts beyond what ``json.dumps`` writes: overflowing and
#: non-finite literals, a digit run past Python's int-parse limit
json_texts = st.one_of(
    json_values.map(json.dumps),
    st.sampled_from(["1e999", "[1e999]", "NaN", "-Infinity",
                     '{"type":"frames","frames":[[1e999,0,[1]]]}',
                     "1" * 5000, '{"type":1}', "{}", "[]", '"x"']))


def _framed(body: bytes) -> bytes:
    return struct.pack("!I", len(body)) + body


stream_pieces = st.one_of(
    st.binary(max_size=64),
    json_texts.map(lambda text: _framed(text.encode("utf-8"))),
    st.binary(max_size=64).map(_framed),
    # a header announcing more than the frame limit
    st.integers(protocol.MAX_MESSAGE_BYTES + 1, 2**32 - 1).map(
        lambda n: struct.pack("!I", n)))


def _split(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({c % (len(data) + 1) for c in cuts})
    edges = [0, *points, len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:])]


@given(st.lists(stream_pieces, max_size=6), st.lists(st.integers(0, 4096),
                                                     max_size=8))
@settings(max_examples=150, deadline=None)
def test_stream_decoder_refuses_only_with_protocol_error(pieces, cuts):
    decoder = protocol.MessageDecoder()
    for chunk in _split(b"".join(pieces), cuts):
        try:
            messages = decoder.feed(chunk)
        except protocol.ProtocolError:
            return  # the stream is corrupt; a server closes it here
        assert all(isinstance(m, dict) and "type" in m for m in messages)
        assert decoder.bytes_buffered <= protocol.MAX_MESSAGE_BYTES + 4


@given(st.one_of(st.binary(max_size=128),
                 json_texts.map(lambda text: text.encode("utf-8"))))
@settings(max_examples=150, deadline=None)
def test_datagram_decoder_refuses_only_with_protocol_error(data):
    try:
        message = decode_datagram(data)
    except protocol.ProtocolError:
        return
    assert isinstance(message, dict) and "type" in message


@given(st.fixed_dictionaries({"type": st.just("frames")},
                             optional={"frames": frame_lists}))
@example({"type": "frames", "frames": [[INF, 0.0, [1.0]]]})
@example({"type": "frames", "frames": [[0, INF, [1.0]]]})
@settings(max_examples=200, deadline=None)
def test_decode_frames_refuses_only_with_protocol_error(message):
    try:
        block = protocol.decode_frames(message)
    except protocol.ProtocolError:
        return
    # whatever is accepted can be stamped onto an event and sent back
    json.dumps(block.times_s.tolist(), allow_nan=False)
    # and is what int() and float() make of each frame's fields
    assert repr([(f.index, f.time_s, f.values) for f in block.frames()]) == (
        repr([(int(index), float(time_s), tuple(float(v) for v in values))
              for index, time_s, values in message["frames"]]))


hello_fields = {"protocol": st.one_of(st.just(protocol.PROTOCOL_NAME),
                                      json_values),
                "version": st.one_of(st.just(protocol.PROTOCOL_VERSION),
                                     json_values),
                "tenant": st.one_of(st.text(max_size=4), json_values),
                "session": st.one_of(st.text(max_size=4), json_values)}


@given(st.fixed_dictionaries({"type": st.one_of(st.just("hello"),
                                                json_values)},
                             optional=hello_fields))
@settings(max_examples=150, deadline=None)
def test_check_hello_refuses_only_with_protocol_error(message):
    try:
        tenant, session = protocol.check_hello(message)
    except protocol.ProtocolError:
        return
    assert isinstance(tenant, str) and isinstance(session, str)


class _MemoryPeer:
    """A peer with no socket; refuses what a stream could not carry."""

    async def send(self, message: dict) -> None:
        protocol.encode_message(message)

    def close(self) -> None:
        pass


message_types = st.sampled_from([
    "hello", "frames", "heartbeat", "stats", "watch", "checkpoint",
    "restore", "bye", "events", "error", "nonsense"])
switch_messages = st.fixed_dictionaries(
    {"type": st.one_of(message_types, json_values)},
    optional={"frames": frame_lists, "t": json_values,
              "interval_s": json_values, "state": json_values,
              **hello_fields})


def _service() -> SessionService:
    registry = MetricsRegistry()
    manager = SessionManager(
        ServeConfig(),
        engine_factory=lambda: AirFinger(metrics=registry,
                                         tracer=Tracer(sample=0.0)),
        metrics=registry, tracer=Tracer(sample=0.0))
    return SessionService(manager)


@given(st.booleans(), st.lists(switch_messages, max_size=5))
@example(True, [{"type": "frames", "frames": [[INF, 0.0, [1.0]]]}])
@example(True, [{"type": "watch", "interval_s": "abc"}])
@example(True, [{"type": "heartbeat", "t": 10**400}])
@settings(max_examples=150, deadline=None)
def test_message_switch_refuses_only_with_protocol_error(said_hello,
                                                         messages):
    async def run() -> None:
        service = _service()
        peer = _MemoryPeer()
        if said_hello:
            await service.handle(peer, protocol.hello("fuzz", "dev0"))
        try:
            for message in messages:
                try:
                    await service.handle(peer, message)
                except protocol.ProtocolError:
                    pass
        finally:
            await service.stop()

    asyncio.run(run())
