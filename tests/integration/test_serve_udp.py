"""UDP-only transport contract: loss semantics and datagram addressing.

Everything both transports share — golden fidelity, chunking
invariance, stats, heartbeats, eviction, watch, migration, malformed
input — runs over UDP in ``test_serve_loopback.py``.  What is left here
exists only on a lossy, connectionless link:

* **Loss surfaces as gaps, nothing else** — under a seeded datagram-drop
  schedule, the received events are exactly what an engine fed the
  *surviving* frames produces: the missing index runs appear as
  :class:`~repro.core.events.StreamGap` events (each dropped 25-frame
  datagram exceeds ``max_gap_samples=10``, the interpolation bridge) and
  no other divergence exists — no duplicated, reordered or corrupted
  events.
* **Per-datagram addressing** — a datagram naming no live session gets
  an error back, and a device whose datagrams start arriving from a new
  address (a NAT rebinding) keeps its session, its events following it.
* **Replies bounded by the datagram** — a checkpoint whose state does
  not fit one datagram comes back as an error, and the session stays
  where it was.
"""

from __future__ import annotations

import asyncio
import random
import sys
from pathlib import Path

import pytest

from repro.core.events import StreamGap
from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, Tracer
from repro.serve import (
    ServeConfig,
    SessionManager,
    UdpAirFingerServer,
    UdpServeClient,
    protocol,
)
from repro.serve.udp import decode_datagram, encode_datagram

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from golden.stream_cases import build_stream_cases  # noqa: E402

#: frames per datagram in the loss tests: one lost datagram must drop
#: more than ``AirFingerConfig.max_gap_samples`` (10) consecutive
#: indices, or the pipeline interpolates instead of reporting a gap
LOSSY_BATCH = 25


@pytest.fixture(scope="module")
def stream_cases():
    return build_stream_cases()


def _manager() -> SessionManager:
    registry = MetricsRegistry()
    return SessionManager(
        ServeConfig(),
        engine_factory=lambda: AirFinger(metrics=registry,
                                         tracer=Tracer(sample=0.0)),
        metrics=registry, tracer=Tracer(sample=0.0))


def _reference(frames) -> list[str]:
    engine = AirFinger(metrics=MetricsRegistry(), tracer=Tracer(sample=0.0))
    return [repr(e) for e in engine.feed_frames(frames)]


async def _serve_udp(frames, chunk: int = 32, send_filter=None) -> "UdpServeClient":
    manager = _manager()
    async with UdpAirFingerServer(manager) as server:
        client = await UdpServeClient.connect(
            "127.0.0.1", server.port, "golden", "dev0",
            send_filter=send_filter)
        for i in range(0, len(frames), chunk):
            await client.send_frames(frames[i:i + chunk])
            await client.pump()
        await client.bye()
        return client


class TestSeededLoss:
    def _dropped(self, n_batches: int, seed: int,
                 p_drop: float = 0.15) -> set[int]:
        """The seeded drop schedule: which frames datagrams vanish."""
        rng = random.Random(seed)
        # never drop datagram 0: its indices anchor the stream start
        return {i for i in range(1, n_batches)
                if rng.random() < p_drop}

    def test_drops_surface_only_as_stream_gaps(self, stream_cases):
        """Wire events == replay of surviving frames, gaps included."""
        for seed, (name, frames) in zip((1, 2, 3), stream_cases):
            n_batches = (len(frames) + LOSSY_BATCH - 1) // LOSSY_BATCH
            dropped = self._dropped(n_batches, seed)
            assert dropped, "schedule must drop something"
            client = asyncio.run(_serve_udp(
                frames, chunk=LOSSY_BATCH,
                send_filter=lambda ordinal, batch: ordinal not in dropped))
            assert client.dropped_datagrams == len(dropped)
            surviving = [
                f for i in range(n_batches) if i not in dropped
                for f in frames[i * LOSSY_BATCH:(i + 1) * LOSSY_BATCH]]
            assert [repr(e) for e in client.events] == _reference(
                surviving), (
                f"case {name!r}: loss produced non-gap divergence")
            gaps = [e for e in client.events if isinstance(e, StreamGap)]
            assert gaps, "dropped datagrams must surface as StreamGap"

    def test_single_lost_datagram_is_one_gap(self, stream_cases):
        """Drop exactly one 25-frame datagram: exactly its index run
        goes missing, reported as a gap covering it."""
        _, frames = stream_cases[0]
        drop_ordinal = 6
        client = asyncio.run(_serve_udp(
            frames, chunk=LOSSY_BATCH,
            send_filter=lambda o, b: o != drop_ordinal))
        lo = drop_ordinal * LOSSY_BATCH
        hi = lo + LOSSY_BATCH
        surviving = frames[:lo] + frames[hi:]
        assert [repr(e) for e in client.events] == _reference(surviving)
        gaps = [e for e in client.events if isinstance(e, StreamGap)]
        covering = [g for g in gaps
                    if g.start_index <= lo and g.end_index >= hi - 1]
        assert covering, (
            f"no gap covers the dropped indices [{lo}, {hi})")


class TestDatagramPlumbing:
    def test_frames_for_unknown_session_get_error(self):
        """Per-datagram addressing: no hello, no session, an error back."""
        async def run() -> dict:
            manager = _manager()
            async with UdpAirFingerServer(manager) as server:
                loop = asyncio.get_running_loop()
                incoming: asyncio.Queue = asyncio.Queue()

                class Proto(asyncio.DatagramProtocol):
                    def datagram_received(self, data, addr):
                        import json
                        incoming.put_nowait(json.loads(data))

                transport, _ = await loop.create_datagram_endpoint(
                    Proto, remote_addr=("127.0.0.1", server.port))
                message = protocol.frames_message([])
                message["tenant"] = "ghost"
                message["session"] = "nope"
                transport.sendto(encode_datagram(message))
                reply = await asyncio.wait_for(incoming.get(), timeout=10)
                transport.close()
                return reply

        reply = asyncio.run(run())
        assert reply["type"] == "error"
        assert "unknown session" in reply["detail"]

    def test_checkpoint_too_large_for_a_datagram_keeps_the_session(
            self, stream_cases):
        _, frames = stream_cases[0]
        queued = frames * 2  # ~100 KB encoded, under the queue bound

        async def run(manager) -> str:
            async with UdpAirFingerServer(manager) as server:
                # no device link: nothing dispatches the queue
                manager.enqueue(manager.open("acme", "dev7"), queued)
                ctl = await UdpServeClient.connect(
                    "127.0.0.1", server.port, "_fleet", "ctl")
                with pytest.raises(protocol.ProtocolError) as refused:
                    await ctl.checkpoint("acme", "dev7")
                ctl.close()
                return str(refused.value)

        manager = _manager()
        assert "datagram" in asyncio.run(run(manager))
        session = manager.get("acme", "dev7")
        assert session is not None and session.pending == len(queued)

    def test_session_follows_its_device_to_a_new_address(self, stream_cases):
        """Last sender wins: frames addressed to a live session from a new
        source port re-address it; events continue there, none lost."""
        _, frames = stream_cases[0]
        cut = len(frames) // 2

        async def run() -> tuple[list, list]:
            manager = _manager()
            async with UdpAirFingerServer(manager) as server:
                first = await UdpServeClient.connect(
                    "127.0.0.1", server.port, "acme", "dev7")
                for i in range(0, cut, 32):
                    await first.send_frames(frames[i:min(i + 32, cut)])
                    await first.pump()
                session = manager.get("acme", "dev7")
                while session.frames_in < cut or session.pending:
                    await asyncio.sleep(0.01)
                await first.pump(0.2)
                first.close()

                rebound: asyncio.Queue = asyncio.Queue()

                class Proto(asyncio.DatagramProtocol):
                    def datagram_received(self, data, addr):
                        rebound.put_nowait(decode_datagram(data))

                transport, _ = await asyncio.get_running_loop(
                    ).create_datagram_endpoint(
                        Proto, remote_addr=("127.0.0.1", server.port))
                for i in range(cut, len(frames), 32):
                    message = protocol.frames_message(frames[i:i + 32])
                    message.update(tenant="acme", session="dev7")
                    transport.sendto(encode_datagram(message))
                transport.sendto(encode_datagram(
                    dict(protocol.bye(), tenant="acme", session="dev7")))
                replies = []
                while not replies or replies[-1]["type"] != "bye":
                    replies.append(await asyncio.wait_for(rebound.get(),
                                                          timeout=10))
                transport.close()
                return first.events, list(
                    protocol.iter_decoded_events(replies))

        before, after = asyncio.run(run())
        assert [repr(e) for e in before + after] == _reference(frames)
        assert after, "no events followed the device to its new address"
