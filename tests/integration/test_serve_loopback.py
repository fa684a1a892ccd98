"""Loopback serving over both transports: wire events == in-process events.

The serving acceptance contract: for every golden stream case
(:mod:`tests.golden.stream_cases` — clean and fault-injected), the
events a client receives through a real socket round-trip are identical
(``repr`` bit-equality) to an in-process
:meth:`AirFinger.feed_frames <repro.core.pipeline.AirFinger.feed_frames>`
replay of the same frames.  On top of fidelity: concurrent multi-tenant
sessions stay isolated, graceful ``bye`` delivers the flush tail,
handshake violations are rejected, idle sessions are evicted with their
tail delivered, the stats stamps keep the clock contract, and both
transports serve the same message set — ``watch``, ``checkpoint`` /
``restore`` and a ``protocol`` error for malformed input.

Both transports run every test: each class below runs over TCP
(:class:`~repro.serve.server.AirFingerServer`), and its ``…OverUdp``
subclass at the bottom of the module reruns it over UDP
(:class:`~repro.serve.udp.UdpAirFingerServer`).  The UDP-only contract
(seeded loss surfaces only as ``StreamGap`` events) lives in
``test_serve_udp.py``.
"""

from __future__ import annotations

import asyncio
import json
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.acquisition.stream import RssFrame
from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, TelemetryPlane, Tracer, get_registry
from repro.serve import (
    AirFingerServer,
    ServeClient,
    ServeConfig,
    SessionManager,
    UdpAirFingerServer,
    UdpServeClient,
    protocol,
)
from repro.serve.udp import decode_datagram

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from golden.stream_cases import build_stream_cases  # noqa: E402


@pytest.fixture(scope="module")
def stream_cases():
    """(name, frames) for every golden case — clean and faulted."""
    return build_stream_cases()


def _registry_manager(config: ServeConfig | None = None
                      ) -> tuple[SessionManager, MetricsRegistry]:
    registry = MetricsRegistry()
    manager = SessionManager(
        config or ServeConfig(),
        engine_factory=lambda: AirFinger(metrics=registry,
                                         tracer=Tracer(sample=0.0)),
        metrics=registry, tracer=Tracer(sample=0.0))
    return manager, registry


def _reference_events(frames) -> list[str]:
    engine = AirFinger(metrics=MetricsRegistry(), tracer=Tracer(sample=0.0))
    return [repr(e) for e in engine.feed_frames(frames)]


# ---------------------------------------------------------------------------
# the two transports
# ---------------------------------------------------------------------------

class _RawStream:
    """A bare TCP connection: send raw JSON bodies, read messages."""

    async def open(self, port: int) -> "_RawStream":
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port)
        self.decoder = protocol.MessageDecoder()
        self.pending: list[dict] = []
        return self

    def send(self, body: bytes) -> None:
        self.writer.write(struct.pack("!I", len(body)) + body)

    async def recv(self) -> dict | None:
        """The next message, or ``None`` once the server closed."""
        while not self.pending:
            data = await asyncio.wait_for(self.reader.read(65536),
                                          timeout=10)
            if not data:
                return None
            self.pending.extend(self.decoder.feed(data))
        return self.pending.pop(0)

    def close(self) -> None:
        self.writer.close()


class _RawDatagrams(asyncio.DatagramProtocol):
    """A bare UDP socket: send raw JSON bodies, read datagrams."""

    async def open(self, port: int) -> "_RawDatagrams":
        self.incoming: asyncio.Queue[dict] = asyncio.Queue()
        self.transport, _ = await asyncio.get_running_loop(
            ).create_datagram_endpoint(lambda: self,
                                       remote_addr=("127.0.0.1", port))
        return self

    def datagram_received(self, data, addr) -> None:
        self.incoming.put_nowait(decode_datagram(data))

    def send(self, body: bytes) -> None:
        self.transport.sendto(body)

    async def recv(self) -> dict | None:
        return await asyncio.wait_for(self.incoming.get(), timeout=10)

    def close(self) -> None:
        self.transport.close()


async def _tcp_connect(port: int, tenant: str, session: str,
                       clock=time.perf_counter) -> ServeClient:
    return await ServeClient.connect("127.0.0.1", port, tenant, session,
                                     clock=clock)


async def _udp_connect(port: int, tenant: str, session: str,
                       clock=time.perf_counter) -> UdpServeClient:
    client = await UdpServeClient.connect("127.0.0.1", port, tenant,
                                          session)
    client._clock = clock  # its connect takes no clock; none is read yet
    return client


@dataclass(frozen=True)
class Transport:
    server: type
    connect: object
    raw: type
    #: frames per message in the fidelity runs
    chunk: int
    #: the chunkings the invariance test tries (``None``: one message)
    chunkings: tuple


TCP = Transport(AirFingerServer, _tcp_connect, _RawStream,
                chunk=64, chunkings=(1, 7, 256, None))
#: a whole golden case does not fit one datagram
UDP = Transport(UdpAirFingerServer, _udp_connect, _RawDatagrams,
                chunk=32, chunkings=(8, 64, 256))


async def _stream(client, frames, chunk: int) -> list:
    for i in range(0, len(frames), chunk):
        await client.send_frames(frames[i:i + chunk])
        await client.pump()
    return await client.bye()


async def _serve_one(transport: Transport, frames, chunk: int) -> list:
    manager, _ = _registry_manager()
    async with transport.server(manager) as server:
        client = await transport.connect(server.port, "golden", "dev0")
        return await _stream(client, frames, chunk)


async def _quiet(client) -> None:
    """Absorb what is in flight until the wire goes quiet (or closes)."""
    while True:
        seen = len(client.events)
        if (not await client._read_some(0.2)
                or len(client.events) == seen):
            return


# ---------------------------------------------------------------------------
# the suite (TCP here; the ...OverUdp subclasses rerun it over UDP)
# ---------------------------------------------------------------------------

class TestGoldenFidelity:
    transport = TCP

    def test_every_golden_case_is_bit_identical_over_the_wire(
            self, stream_cases):
        """Clean + faulted (FaultSchedule) streams: wire == in-process."""
        for name, frames in stream_cases:
            wire = asyncio.run(_serve_one(self.transport, frames,
                                          self.transport.chunk))
            assert [repr(e) for e in wire] == _reference_events(frames), (
                f"case {name!r}: wire events diverged from in-process")

    def test_fidelity_is_chunking_invariant(self, stream_cases):
        """The wire batching must never leak into the event stream."""
        name, frames = stream_cases[0]
        reference = _reference_events(frames)
        for chunk in self.transport.chunkings:
            wire = asyncio.run(_serve_one(self.transport, frames,
                                          chunk or len(frames)))
            assert [repr(e) for e in wire] == reference, (
                f"case {name!r}: chunk={chunk} changed the events")


class TestConcurrentSessions:
    transport = TCP

    def test_interleaved_tenants_stay_isolated(self, stream_cases):
        """Two cases interleaved over one server: each gets its own trace."""
        (name_a, frames_a), (name_b, frames_b) = stream_cases[:2]

        async def run() -> tuple[list, list]:
            manager, _ = _registry_manager()
            async with self.transport.server(manager) as server:

                async def drive(tenant, frames):
                    client = await self.transport.connect(
                        server.port, tenant, "dev0")
                    return await _stream(client, frames, 48)

                return await asyncio.gather(drive("tenant_a", frames_a),
                                            drive("tenant_b", frames_b))

        events_a, events_b = asyncio.run(run())
        assert [repr(e) for e in events_a] == _reference_events(frames_a)
        assert [repr(e) for e in events_b] == _reference_events(frames_b)

    def test_per_tenant_metrics_are_split(self, stream_cases):
        _, frames = stream_cases[0]

        async def run() -> MetricsRegistry:
            manager, registry = _registry_manager()
            async with self.transport.server(manager) as server:

                async def drive(tenant):
                    client = await self.transport.connect(
                        server.port, tenant, "dev0")
                    await client.send_frames(frames[:100])
                    await client.bye()

                await asyncio.gather(drive("alpha"), drive("beta"))
            return registry

        registry = asyncio.run(run())
        counters = registry.snapshot().counters
        assert counters['serve.frames{tenant="alpha"}'] == 100
        assert counters['serve.frames{tenant="beta"}'] == 100
        assert counters['serve.sessions_closed{tenant="alpha"}'] == 1


class TestProtocolLifecycle:
    transport = TCP

    def test_bad_handshake_gets_error_and_close(self):
        async def run() -> dict:
            manager, _ = _registry_manager()
            async with self.transport.server(manager) as server:
                raw = await self.transport.raw().open(server.port)
                bad = protocol.hello("t", "s")
                bad["version"] = 999
                raw.send(json.dumps(bad).encode())
                message = await raw.recv()
                raw.close()
                if message is None:
                    raise AssertionError("closed without error message")
                return message

        message = asyncio.run(run())
        assert message["type"] == "error"
        assert "version" in message["detail"]

    def test_stats_over_the_wire(self, stream_cases):
        _, frames = stream_cases[0]

        async def run() -> dict:
            manager, _ = _registry_manager()
            async with self.transport.server(manager) as server:
                client = await self.transport.connect(server.port, "t0",
                                                      "dev0")
                await client.send_frames(frames[:64])
                stats = await client.stats()
                await client.bye()
                return stats

        stats = asyncio.run(run())
        assert stats["sessions_open"] == 1
        counters = stats["metrics"]["counters"]
        assert counters['serve.frames{tenant="t0"}'] == 64

    def test_idle_eviction_delivers_tail_and_bye(self):
        """A silent session is flushed and told bye by the reaper."""
        frames = [RssFrame(index=i, time_s=i / 100.0, values=(5.0, 6.0))
                  for i in range(50)]

        async def run():
            config = ServeConfig(idle_timeout_s=0.2,
                                 heartbeat_interval_s=0.05)
            manager, _ = _registry_manager(config)
            async with self.transport.server(manager) as server:
                client = await self.transport.connect(server.port, "t0",
                                                      "sleepy")
                await client.send_frames(frames)
                # read until the server evicts us (bye) or 5 s pass
                deadline = asyncio.get_running_loop().time() + 5.0
                while (not client._bye_seen
                       and asyncio.get_running_loop().time() < deadline):
                    if not await client._read_some(0.1):
                        break
                assert manager.get("t0", "sleepy") is None
                client.close()
                return client

        client = asyncio.run(run())
        assert client._bye_seen
        assert [repr(e) for e in client.events] == _reference_events(
            frames)


class _SteppingClock:
    """Returns scripted values in order, then holds the last one."""

    def __init__(self, *values: float) -> None:
        self._values = list(values)
        self._last = values[0]

    def __call__(self) -> float:
        if self._values:
            self._last = self._values.pop(0)
        return self._last


class TestClockContract:
    """Regression: wall vs monotonic mixing in the v2 stats stamps.

    The server used to stamp only ``server_time_s = time.time()`` next
    to a monotonic uptime — two unrelated clock domains in one message,
    with no way for a client to diff rates safely across an NTP step.
    The contract now: ``server_time_s`` is wall and display-only;
    ``server_mono_s``/``uptime_s`` come from one injected monotonic
    reading.  These tests fail against the old server (no clock
    injection, no ``server_mono_s``) and old client (no clock
    injection in ``ping``).
    """

    transport = TCP

    def test_stats_stamps_survive_wall_clock_step(self):
        # wall steps back a full hour between the two stats calls
        wall = _SteppingClock(1_700_000_000.0, 1_700_000_000.0,
                              1_700_000_000.0 - 3600.0)
        mono = _SteppingClock(50.0, 50.0, 62.5)

        async def run() -> tuple[dict, dict]:
            manager, _ = _registry_manager()
            async with self.transport.server(manager, wall_clock=wall,
                                             mono_clock=mono) as server:
                client = await self.transport.connect(server.port, "t0",
                                                      "dev0")
                first = dict(await client.stats(),
                             server_time_s=client.server_time_s,
                             server_mono_s=client.server_mono_s,
                             uptime_s=client.uptime_s)
                second = dict(await client.stats(),
                              server_time_s=client.server_time_s,
                              server_mono_s=client.server_mono_s,
                              uptime_s=client.uptime_s)
                await client.bye()
                return first, second

        first, second = asyncio.run(run())
        # wall went BACKWARDS (display-only; allowed to)
        assert second["server_time_s"] - first["server_time_s"] == -3600.0
        # ...while the measurement stamps still advanced, coherently:
        assert second["server_mono_s"] - first["server_mono_s"] == 12.5
        assert second["uptime_s"] - first["uptime_s"] == 12.5
        assert first["uptime_s"] == first["server_mono_s"] - 50.0

    def test_ping_rtt_uses_injected_monotonic_clock(self):
        # one reading at send, one at echo receipt: RTT is exactly their
        # difference, no matter what the wall clock does meanwhile
        clock = _SteppingClock(10.0, 10.25)

        async def run() -> float:
            manager, _ = _registry_manager()
            async with self.transport.server(manager) as server:
                client = await self.transport.connect(
                    server.port, "t0", "dev0", clock=clock)
                rtt = await client.ping()
                await client.bye()
                return rtt

        assert asyncio.run(run()) == 0.25


def _rtt_count() -> int:
    histogram = get_registry().snapshot().histograms.get(
        "serve.heartbeat_rtt_ms")
    return 0 if histogram is None else histogram["count"]


#: outside input the service refuses with a ``protocol`` error: the
#: body (frames addressed as a datagram client addresses them) and a
#: phrase the error detail must carry
MALFORMED = {
    "overflowing_index": (
        b'{"type":"frames","tenant":"t0","session":"bad",'
        b'"frames":[[1e999,0.0,[1.0]]]}', "malformed frames payload"),
    "overflowing_time": (
        b'{"type":"frames","tenant":"t0","session":"bad",'
        b'"frames":[[0,1e999,[1.0]]]}', "non-finite time_s"),
    "watch_interval_not_a_number": (
        b'{"type":"watch","interval_s":"abc"}', "interval_s"),
}


class TestSameMessageSet:
    """Messages both transports must serve the same way."""

    transport = TCP

    def test_ping_records_rtt_histogram(self):
        async def run() -> int:
            manager, _ = _registry_manager()
            async with self.transport.server(manager) as server:
                client = await self.transport.connect(server.port, "t0",
                                                      "dev0")
                before = _rtt_count()
                await client.ping()
                await client.bye()
                return _rtt_count() - before

        assert asyncio.run(run()) == 1

    def test_watch_subscriber_receives_a_tick(self):
        async def run() -> dict:
            manager, registry = _registry_manager()
            plane = TelemetryPlane(metrics=registry, interval_s=0.05)
            async with self.transport.server(manager,
                                             telemetry=plane) as server:
                watcher = await self.transport.connect(server.port, "ops",
                                                       "watcher")
                await watcher.watch()
                tick = await watcher.next_telemetry(timeout_s=10.0)
                await watcher.bye()
                return tick

        tick = asyncio.run(run())
        assert {"seq", "time_s", "sample", "health", "alerts"} <= set(tick)

    def test_checkpoint_on_one_server_restore_on_another(
            self, stream_cases):
        """Device on A → checkpoint → restore on B → device reconnects:
        the two halves concatenate to the unmigrated replay."""
        _, frames = stream_cases[0]
        cut = len(frames) // 2
        chunk = self.transport.chunk

        async def run() -> list:
            (manager_a, _), (manager_b, _) = (_registry_manager(),
                                              _registry_manager())
            async with self.transport.server(manager_a) as server_a, \
                    self.transport.server(manager_b) as server_b:
                dev = await self.transport.connect(server_a.port, "acme",
                                                   "dev7")
                for i in range(0, cut, chunk):
                    await dev.send_frames(frames[i:min(i + chunk, cut)])
                    await dev.pump()
                # let A receive and dispatch every frame before capture
                session = manager_a.get("acme", "dev7")
                while session.frames_in < cut or session.pending:
                    await asyncio.sleep(0.01)
                ctl_a = await self.transport.connect(server_a.port,
                                                     "_fleet", "ctl")
                state = await ctl_a.checkpoint("acme", "dev7")
                await ctl_a.bye()
                assert manager_a.get("acme", "dev7") is None
                await _quiet(dev)
                dev.close()
                events = list(dev.events)

                ctl_b = await self.transport.connect(server_b.port,
                                                     "_fleet", "ctl")
                assert await ctl_b.restore(state) == "dev7"
                await ctl_b.bye()
                # reconnect: hello on B hands back the restored session
                dev2 = await self.transport.connect(server_b.port, "acme",
                                                    "dev7")
                events += await _stream(dev2, frames[cut:], chunk)
                return events

        events = asyncio.run(run())
        assert [repr(e) for e in events] == _reference_events(frames)

    def test_engine_failure_ends_the_session_with_an_error(self):
        """Frames the engine cannot take (the channel count changes
        mid-stream) end that session with an ``internal`` error."""
        two = [RssFrame(index=i, time_s=i / 100.0, values=(5.0, 6.0))
               for i in range(20)]
        one = [RssFrame(index=20, time_s=0.2, values=(5.0,))]

        async def run() -> str:
            manager, _ = _registry_manager()
            async with self.transport.server(manager) as server:
                client = await self.transport.connect(server.port, "t0",
                                                      "dev0")
                await client.send_frames(two)
                await client.send_frames(one)
                with pytest.raises(protocol.ProtocolError) as refused:
                    await client._request(None, lambda: False, "error",
                                          10.0)
                client.close()
                return str(refused.value)

        assert "ValueError" in asyncio.run(run())

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_gets_protocol_error(self, case, stream_cases):
        """The refused peer gets a ``protocol`` error; other sessions on
        the same server keep being served."""
        _, frames = stream_cases[0]

        async def run() -> tuple[dict, list]:
            manager, _ = _registry_manager()
            async with self.transport.server(manager) as server:
                raw = await self.transport.raw().open(server.port)
                raw.send(json.dumps(protocol.hello("t0", "bad")).encode())
                raw.send(MALFORMED[case][0])
                reply = await raw.recv()
                while reply is not None and reply["type"] != "error":
                    reply = await raw.recv()
                raw.close()
                client = await self.transport.connect(server.port, "t0",
                                                      "good")
                return reply, await _stream(client, frames[:300],
                                            self.transport.chunk)

        reply, events = asyncio.run(run())
        assert reply is not None, "closed without error message"
        assert reply["code"] == "protocol", reply
        assert MALFORMED[case][1] in reply["detail"], reply
        assert [repr(e) for e in events] == _reference_events(frames[:300])


# ---------------------------------------------------------------------------
# the same suite over UDP
# ---------------------------------------------------------------------------

class TestGoldenFidelityOverUdp(TestGoldenFidelity):
    transport = UDP


class TestConcurrentSessionsOverUdp(TestConcurrentSessions):
    transport = UDP


class TestProtocolLifecycleOverUdp(TestProtocolLifecycle):
    transport = UDP


class TestClockContractOverUdp(TestClockContract):
    transport = UDP


class TestSameMessageSetOverUdp(TestSameMessageSet):
    transport = UDP
