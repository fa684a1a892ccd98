"""Wire-protocol unit tests: framing, handshake, exact event round-trips."""

from __future__ import annotations

import json
import struct

import pytest

from repro.acquisition.stream import FrameBlock, RssFrame
from repro.core.events import (
    ChannelMaskEvent,
    GestureEvent,
    ScrollUpdate,
    SegmentEvent,
    StreamGap,
)
from repro.serve import protocol
from repro.serve.protocol import MessageDecoder, ProtocolError, encode_message
from repro.serve.udp import decode_datagram

SEGMENT = SegmentEvent(start_index=120, end_index=245,
                       start_time_s=1.2, end_time_s=2.45)

EVENTS = [
    SEGMENT,
    GestureEvent(label="circle", confidence=0.9375, segment=SEGMENT,
                 accepted=True),
    GestureEvent(label="non_gesture", confidence=1.0, segment=SEGMENT,
                 accepted=False),
    ScrollUpdate(direction=-1, velocity_mm_s=-33.15625,
                 displacement_mm=-8.2890625, time_s=2.45, final=True,
                 segment=SEGMENT),
    ScrollUpdate(direction=1, velocity_mm_s=0.1 + 0.2,  # non-representable
                 displacement_mm=1e-17, time_s=1.7, final=False,
                 segment=SEGMENT),
    StreamGap(start_index=300, end_index=360, duration_s=0.6, time_s=3.6),
    ChannelMaskEvent(channel=2, masked=True, reason="flatline", index=410,
                     time_s=4.1),
    ChannelMaskEvent(channel=2, masked=False, reason="recovered", index=500,
                     time_s=5.0),
]


class TestFraming:
    def test_roundtrip_single_message(self):
        decoder = MessageDecoder()
        message = {"type": "heartbeat"}
        assert decoder.feed(encode_message(message)) == [message]
        assert decoder.bytes_buffered == 0

    def test_byte_at_a_time_reassembly(self):
        decoder = MessageDecoder()
        payload = encode_message({"type": "frames", "frames": []})
        out = []
        for i in range(len(payload)):
            out.extend(decoder.feed(payload[i:i + 1]))
        assert out == [{"type": "frames", "frames": []}]

    def test_many_messages_in_one_feed(self):
        messages = [{"type": "heartbeat"}, {"type": "bye"},
                    {"type": "stats"}]
        blob = b"".join(encode_message(m) for m in messages)
        assert MessageDecoder().feed(blob) == messages

    def test_split_across_feeds_preserves_order(self):
        a = encode_message({"type": "heartbeat"})
        b = encode_message({"type": "bye"})
        blob = a + b
        decoder = MessageDecoder()
        got = decoder.feed(blob[: len(a) + 3])
        got += decoder.feed(blob[len(a) + 3:])
        assert got == [{"type": "heartbeat"}, {"type": "bye"}]

    def test_oversized_announcement_rejected(self):
        header = struct.pack("!I", protocol.MAX_MESSAGE_BYTES + 1)
        with pytest.raises(ProtocolError, match="corrupt"):
            MessageDecoder().feed(header)

    def test_oversized_encode_rejected(self):
        big = {"type": "frames",
               "blob": "x" * (protocol.MAX_MESSAGE_BYTES + 1)}
        with pytest.raises(ProtocolError, match="frame limit"):
            encode_message(big)

    def test_non_object_body_rejected(self):
        body = json.dumps([1, 2, 3]).encode()
        blob = struct.pack("!I", len(body)) + body
        with pytest.raises(ProtocolError, match="'type'"):
            MessageDecoder().feed(blob)

    def test_undecodable_body_rejected(self):
        body = b"\xff\xfenot json"
        blob = struct.pack("!I", len(body)) + body
        with pytest.raises(ProtocolError, match="undecodable"):
            MessageDecoder().feed(blob)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_frames_rejected(self, literal):
        """Plain json.loads turns these literals into floats that would
        reach the engine; the wire refuses them, as the encoder does."""
        body = ('{"type":"frames","frames":[[0,0.0,[%s,498.0,530.0]]]}'
                % literal).encode()
        blob = struct.pack("!I", len(body)) + body
        with pytest.raises(ProtocolError, match="non-finite"):
            MessageDecoder().feed(blob)
        with pytest.raises(ProtocolError, match="non-finite"):
            decode_datagram(body)

    def test_finite_frames_still_decode(self):
        message = protocol.frames_message(
            [RssFrame(index=0, time_s=0.0, values=(512.0, 498.0, 530.0))])
        [decoded] = MessageDecoder().feed(encode_message(message))
        assert protocol.decode_frames(decoded).frame(0).values == (
            512.0, 498.0, 530.0)


class TestHandshake:
    def test_hello_roundtrip(self):
        message = protocol.hello("acme", "dev7", sample_rate_hz=100.0)
        assert protocol.check_hello(message) == ("acme", "dev7")

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="expected hello"):
            protocol.check_hello({"type": "frames"})

    def test_wrong_protocol_rejected(self):
        bad = protocol.hello("t", "s")
        bad["protocol"] = "other-proto"
        with pytest.raises(ProtocolError, match="unknown protocol"):
            protocol.check_hello(bad)

    def test_wrong_version_rejected(self):
        bad = protocol.hello("t", "s")
        bad["version"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            protocol.check_hello(bad)

    def test_missing_identity_rejected(self):
        for strip in ("tenant", "session"):
            bad = protocol.hello("t", "s")
            del bad[strip]
            with pytest.raises(ProtocolError):
                protocol.check_hello(bad)


class TestFrames:
    FRAMES = [RssFrame(index=7, time_s=0.07, values=(1.5, 2.25, 3.0)),
              RssFrame(index=9, time_s=0.09,  # index gap survives the wire
                       values=(0.1 + 0.2, 1e-300, 4567.125))]

    def test_roundtrip_exact(self):
        message = protocol.frames_message(self.FRAMES)
        wire = MessageDecoder().feed(encode_message(message))[0]
        assert list(protocol.decode_frames(wire).frames()) == self.FRAMES

    def test_frameblock_input(self):
        block = FrameBlock.from_frames(
            [RssFrame(index=i, time_s=i / 100.0, values=(1.0, 2.0))
             for i in range(4)])
        message = protocol.frames_message(block)
        assert (list(protocol.decode_frames(message).frames())
                == list(block.frames()))

    def test_malformed_payload_rejected(self):
        with pytest.raises(ProtocolError, match="malformed frames"):
            protocol.decode_frames({"type": "frames"})
        with pytest.raises(ProtocolError, match="malformed frames"):
            protocol.decode_frames(
                {"type": "frames", "frames": [[1, 0.01]]})

    def test_decodes_one_columnar_block(self):
        block = protocol.decode_frames(protocol.frames_message(self.FRAMES))
        assert isinstance(block, FrameBlock)
        assert block.indices.dtype == "int64"
        assert block.values.shape == (2, 3)
        assert block.values.dtype == block.times_s.dtype == "float64"
        empty = protocol.decode_frames({"type": "frames", "frames": []})
        assert len(empty) == 0

    def test_ragged_frames_rejected(self):
        with pytest.raises(ProtocolError, match="disagree on channel count"):
            protocol.decode_frames({"type": "frames", "frames": [
                [0, 0.0, [1.0, 2.0]], [1, 0.01, [1.0]]]})

    @pytest.mark.parametrize("frame", [
        [0, 0.0, [1.0, None]],        # float(None) raises; numpy would NaN
        [0, None, [1.0]],
        [None, 0.0, [1.0]],
        [2 ** 63, 0.0, [1.0]],        # no int64 index
        [0, 0.0, 5],
    ])
    def test_values_float_refuses_are_refused(self, frame):
        with pytest.raises(ProtocolError, match="malformed frames"):
            protocol.decode_frames({"type": "frames", "frames": [frame]})

    def test_conversions_are_int_and_float(self):
        """What ``int()``/``float()`` accept decodes as they convert it."""
        block = protocol.decode_frames({"type": "frames", "frames": [
            [True, "0.5", ["1e3", 2, False]], [2.9, 1, [-0.0, 1e308, 7]]]})
        assert block.indices.tolist() == [1, 2]
        assert block.times_s.tolist() == [0.5, 1.0]
        assert block.values.tolist() == [[1000.0, 2.0, 0.0],
                                         [-0.0, 1e308, 7.0]]

    def test_non_finite_time_names_the_frame(self):
        with pytest.raises(ProtocolError,
                           match="frame 4 has non-finite time_s inf"):
            protocol.decode_frames({"type": "frames", "frames": [
                [3, 0.0, [1.0]], [4, float("inf"), [1.0]]]})


class TestEvents:
    @pytest.mark.parametrize(
        "event", EVENTS, ids=lambda e: type(e).__name__)
    def test_event_roundtrip_is_bit_exact(self, event):
        """JSON float repr is shortest-round-trip: repr equality = bits."""
        payload = protocol.encode_event(event)
        wire = MessageDecoder().feed(
            encode_message({"type": "events", "events": [payload]}))[0]
        (back,) = protocol.decode_events(wire)
        assert repr(back) == repr(event)
        assert back == event

    def test_events_message_preserves_order(self):
        message = protocol.events_message(EVENTS)
        back = protocol.decode_events(message)
        assert [repr(e) for e in back] == [repr(e) for e in EVENTS]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown event kind"):
            protocol.decode_event({"kind": "mystery"})

    def test_unencodable_event_rejected(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            protocol.encode_event(object())

    def test_malformed_event_rejected(self):
        with pytest.raises(ProtocolError, match="malformed event"):
            protocol.decode_event({"kind": "gesture", "label": "x"})

    def test_iter_decoded_events_skips_control(self):
        messages = [protocol.heartbeat(),
                    protocol.events_message(EVENTS[:2]),
                    protocol.bye(),
                    protocol.events_message(EVENTS[2:4])]
        got = list(protocol.iter_decoded_events(messages))
        assert [repr(e) for e in got] == [repr(e) for e in EVENTS[:4]]


class TestControlMessagesV2:
    def test_plain_heartbeat_has_no_timing_fields(self):
        message = protocol.heartbeat()
        assert message == {"type": "heartbeat"}

    def test_heartbeat_echo_roundtrip(self):
        ping = protocol.heartbeat(t=123.456)
        assert ping == {"type": "heartbeat", "t": 123.456}
        pong = protocol.heartbeat(echo=ping["t"])
        wire = MessageDecoder().feed(encode_message(pong))[0]
        assert wire["echo"] == 123.456
        assert "t" not in wire

    def test_stats_reply_stamps(self):
        message = protocol.stats_reply({"counters": {}},
                                       server_time_s=1700000000.25,
                                       uptime_s=12.5)
        wire = MessageDecoder().feed(encode_message(message))[0]
        assert wire["server_time_s"] == 1700000000.25
        assert wire["uptime_s"] == 12.5

    def test_stats_reply_stamps_optional(self):
        message = protocol.stats_reply({"counters": {}})
        assert "server_time_s" not in message
        assert "uptime_s" not in message

    def test_watch_subscribe_and_cancel(self):
        assert protocol.watch() == {"type": "watch"}
        assert protocol.watch(2.5) == {"type": "watch", "interval_s": 2.5}
        assert protocol.watch(0)["interval_s"] == 0.0

    def test_telemetry_message_roundtrip(self):
        payload = {"seq": 3, "health": {"overall": "ok"}}
        message = protocol.telemetry_message(payload)
        wire = MessageDecoder().feed(encode_message(message))[0]
        assert wire == {"type": "telemetry", "telemetry": payload}

    def test_version_is_two(self):
        # v2 introduced watch/telemetry and the heartbeat echo; the
        # handshake is strict, so the constant is part of the contract.
        assert protocol.PROTOCOL_VERSION == 2



class TestScaleOutMessagesV2:
    """Additive-within-v2 extensions: the monotonic stats stamp, the
    shard listing in ``hello_ack`` and the checkpoint/restore pair."""

    def test_stats_reply_monotonic_stamp_roundtrip(self):
        message = protocol.stats_reply({"counters": {}},
                                       server_time_s=1.7e9,
                                       uptime_s=12.5,
                                       server_mono_s=9876.125)
        wire = MessageDecoder().feed(encode_message(message))[0]
        assert wire["server_mono_s"] == 9876.125
        # the wall stamp rides along, display-only
        assert wire["server_time_s"] == 1.7e9

    def test_stats_reply_monotonic_stamp_optional(self):
        # pre-existing peers that never stamp stay valid v2 speakers
        assert "server_mono_s" not in protocol.stats_reply({})

    def test_hello_ack_shard_listing_roundtrip(self):
        listing = [{"shard": 0, "host": "127.0.0.1", "port": 7001},
                   {"shard": 1, "host": "127.0.0.1", "port": 7002}]
        message = protocol.hello_ack("s0", heartbeat_interval_s=5.0,
                                     max_batch_frames=512, shards=listing)
        wire = MessageDecoder().feed(encode_message(message))[0]
        assert wire["shards"] == listing
        # types are normalized on encode, not trusted from the caller
        noisy = protocol.hello_ack(
            "s0", heartbeat_interval_s=5.0, max_batch_frames=512,
            shards=[{"shard": "1", "host": "h", "port": "7003"}])
        assert noisy["shards"] == [{"shard": 1, "host": "h",
                                    "port": 7003}]

    def test_hello_ack_without_shards_omits_field(self):
        message = protocol.hello_ack("s0", heartbeat_interval_s=5.0,
                                     max_batch_frames=512)
        assert "shards" not in message

    def test_checkpoint_request_reply_roundtrip(self):
        request = protocol.checkpoint_request("acme", "dev7")
        wire = MessageDecoder().feed(encode_message(request))[0]
        assert wire == {"type": "checkpoint", "tenant": "acme",
                        "session": "dev7"}
        state = {"schema": 1, "tenant": "acme", "session": "dev7",
                 "engine": {"cursor": 42}}
        reply = protocol.checkpoint_reply(state)
        wire = MessageDecoder().feed(encode_message(reply))[0]
        assert wire == {"type": "checkpoint_reply", "state": state}

    def test_checkpoint_reply_error(self):
        reply = protocol.checkpoint_reply(None, error="no live session")
        assert reply["state"] is None
        assert reply["error"] == "no live session"

    def test_restore_request_reply_roundtrip(self):
        state = {"schema": 1, "tenant": "acme", "session": "dev7"}
        request = protocol.restore_request(state)
        wire = MessageDecoder().feed(encode_message(request))[0]
        assert wire == {"type": "restore", "state": state}
        reply = protocol.restore_reply("dev7")
        wire = MessageDecoder().feed(encode_message(reply))[0]
        assert wire == {"type": "restore_reply", "session": "dev7"}

    def test_restore_reply_error(self):
        reply = protocol.restore_reply(None, error="config mismatch")
        assert reply["session"] is None
        assert reply["error"] == "config mismatch"
