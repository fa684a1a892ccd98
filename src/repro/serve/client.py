"""Minimal asyncio clients for the serving protocol.

Used by the load generator, the loopback fidelity tests, and anyone who
wants to talk to an ``airfinger serve`` process from Python.  One client
is one device session: connect + handshake, send frame batches, collect
decoded pipeline events as they stream back, and close with a graceful
``bye`` that returns the server's flush tail.

:class:`SessionClient` holds everything that does not depend on the
transport — absorbing the server's messages and the send-then-wait
calls (``ping``, ``stats``, ``watch``, ``checkpoint``, ``restore``);
:class:`ServeClient` carries it over TCP and
:class:`~repro.serve.udp.UdpServeClient` over UDP.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import deque
from typing import Callable, Iterable

from repro.acquisition.stream import RssFrame
from repro.obs import MetricsRegistry, get_registry
from repro.serve import protocol

__all__ = ["SessionClient", "ServeClient", "HEARTBEAT_RTT_BUCKETS_MS"]

#: Millisecond buckets for ``serve.heartbeat_rtt_ms`` — loopback RTTs
#: sit well under 1 ms; WAN paths reach the hundreds.
HEARTBEAT_RTT_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0)

#: Server messages a request waits for, kept until it collects them.
_REPLY_TYPES = ("hello_ack", "stats_reply", "checkpoint_reply",
                "restore_reply")


class SessionClient:
    """One protocol session, whatever carries its messages.

    A transport subclass provides ``_send(message)``, ``_read_some
    (timeout_s)`` — absorb what arrives within the timeout; ``False``
    once the server closed the stream — and ``close()``.
    """

    def __init__(self, hello_ack: dict,
                 metrics: MetricsRegistry | None = None,
                 clock=time.perf_counter) -> None:
        self.hello_ack = hello_ack
        metrics = metrics if metrics is not None else get_registry()
        #: monotonic clock stamping ping `t` and differencing the echo;
        #: RTT never touches the wall clock, so an NTP step mid-ping
        #: cannot produce a negative (or hours-long) round trip
        self._clock = clock
        self._h_rtt = metrics.histogram(
            "serve.heartbeat_rtt_ms", buckets=HEARTBEAT_RTT_BUCKETS_MS)
        #: every decoded pipeline event received so far, in wire order
        self.events: list = []
        self.heartbeats = 0
        #: measured heartbeat round-trip times, seconds, oldest first
        self.rtts_s: list[float] = []
        #: telemetry ticks received on a ``watch`` subscription
        self.telemetry: deque[dict] = deque(maxlen=1024)
        #: server stamps from the last ``stats_reply`` (v2 servers):
        #: ``server_time_s`` is wall (display only); ``server_mono_s`` /
        #: ``uptime_s`` are the monotonic stamps to diff rates from
        self.server_time_s: float | None = None
        self.server_mono_s: float | None = None
        self.uptime_s: float | None = None
        self._bye_seen = False
        self._replies: dict[str, dict] = {}

    @property
    def shards(self) -> list[dict]:
        """Shard advertisement from the ``hello_ack`` (fleet front-ends)."""
        return list(self.hello_ack.get("shards", []))

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    async def _send(self, message: dict) -> None:
        raise NotImplementedError

    async def _read_some(self, timeout_s: float) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        """Drop the transport without a ``bye``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _absorb(self, message: dict) -> None:
        kind = message.get("type")
        if kind == "events":
            self.events.extend(protocol.decode_events(message))
        elif kind == "heartbeat":
            self.heartbeats += 1
            echo = message.get("echo")
            if echo is not None:
                # the echo carries OUR monotonic reading back, so RTT
                # needs no clock agreement with the server (and no wall
                # clock at all)
                rtt_s = max(self._clock() - float(echo), 0.0)
                self.rtts_s.append(rtt_s)
                self._h_rtt.observe(rtt_s * 1e3)
        elif kind == "telemetry":
            self.telemetry.append(message.get("telemetry", {}))
        elif kind == "bye":
            self._bye_seen = True
        elif kind == "error":
            raise protocol.ProtocolError(
                f"server error: {message.get('detail')}")
        elif kind in _REPLY_TYPES:
            if kind == "stats_reply":
                self.server_time_s = message.get("server_time_s")
                self.server_mono_s = message.get("server_mono_s")
                self.uptime_s = message.get("uptime_s")
            self._replies[kind] = message

    async def _request(self, message: dict | None,
                       done: Callable[[], object], what: str,
                       timeout_s: float) -> None:
        """Send *message* (if any), then absorb until ``done()``."""
        if message is not None:
            await self._send(message)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while not done():
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise TimeoutError(f"{what} timed out")
            if not await self._read_some(remaining):
                raise ConnectionError(f"server closed before {what}")

    async def _reply(self, message: dict, reply_type: str,
                     timeout_s: float) -> dict:
        """Send *message*; return the next *reply_type* message."""
        self._replies.pop(reply_type, None)
        await self._request(message, lambda: reply_type in self._replies,
                            reply_type, timeout_s)
        return self._replies.pop(reply_type)

    async def _hello(self, tenant: str, session: str,
                     timeout_s: float) -> None:
        try:
            self.hello_ack = await self._reply(
                protocol.hello(tenant, session), "hello_ack", timeout_s)
        except protocol.ProtocolError as exc:
            raise protocol.ProtocolError(
                f"handshake rejected: {exc}") from None

    # ------------------------------------------------------------------
    async def send_frames(self, frames: Iterable[RssFrame]) -> None:
        """Ship one frame batch."""
        await self._send(protocol.frames_message(frames))

    async def pump(self, timeout_s: float = 0.001) -> None:
        """Opportunistically absorb any events already on the wire."""
        await self._read_some(timeout_s)

    async def ping(self, timeout_s: float = 10.0) -> float:
        """Measure one heartbeat round-trip; returns the RTT in seconds.

        Sends a timestamped heartbeat, waits for the server's echo, and
        records the RTT into the ``serve.heartbeat_rtt_ms`` histogram
        (also appended to :attr:`rtts_s`).
        """
        seen = len(self.rtts_s)
        await self._request(protocol.heartbeat(t=self._clock()),
                            lambda: len(self.rtts_s) > seen,
                            "heartbeat echo", timeout_s)
        return self.rtts_s[-1]

    async def watch(self, interval_s: float | None = None) -> None:
        """Subscribe to the server's periodic ``telemetry`` pushes.

        Received ticks accumulate in :attr:`telemetry` as the client
        reads (``pump``/:meth:`next_telemetry`).  ``interval_s <= 0``
        cancels the subscription.
        """
        await self._send(protocol.watch(interval_s))

    async def next_telemetry(self, timeout_s: float = 10.0) -> dict:
        """Block until one telemetry tick arrives; returns its payload."""
        await self._request(None, lambda: self.telemetry,
                            "telemetry push", timeout_s)
        return self.telemetry.popleft()

    async def stats(self, timeout_s: float = 10.0) -> dict:
        """Fetch the server's stats snapshot (includes metrics)."""
        reply = await self._reply(protocol.stats_request(), "stats_reply",
                                  timeout_s)
        return reply.get("metrics")

    async def checkpoint(self, tenant: str, session: str,
                         timeout_s: float = 30.0) -> dict:
        """Capture + detach a session on the server; returns its state.

        The migration control call: on success the session is gone from
        the server and the returned payload restores it elsewhere via
        :meth:`restore`.  Raises :class:`protocol.ProtocolError` if the
        server reports no such live session.
        """
        reply = await self._reply(
            protocol.checkpoint_request(tenant, session),
            "checkpoint_reply", timeout_s)
        if reply.get("state") is None:
            raise protocol.ProtocolError(
                f"checkpoint refused: {reply.get('error')}")
        return reply["state"]

    async def restore(self, state: dict, timeout_s: float = 30.0) -> str:
        """Adopt a checkpointed session on this server; returns its id."""
        reply = await self._reply(protocol.restore_request(state),
                                  "restore_reply", timeout_s)
        if reply.get("session") is None:
            raise protocol.ProtocolError(
                f"restore refused: {reply.get('error')}")
        return reply["session"]


class ServeClient(SessionClient):
    """One protocol session against a running TCP server.

    ::

        client = await ServeClient.connect(host, port, "tenant", "dev0")
        await client.send_frames(frames)
        events = await client.bye()     # drain-tail; client.events has all
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, hello_ack: dict,
                 metrics: MetricsRegistry | None = None,
                 clock=time.perf_counter) -> None:
        super().__init__(hello_ack, metrics=metrics, clock=clock)
        self._reader = reader
        self._writer = writer
        self._decoder = protocol.MessageDecoder()

    @classmethod
    async def connect(cls, host: str, port: int, tenant: str,
                      session: str, timeout_s: float = 10.0,
                      metrics: MetricsRegistry | None = None,
                      clock=time.perf_counter) -> "ServeClient":
        """Open a connection and complete the hello handshake."""
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, {}, metrics=metrics, clock=clock)
        await client._hello(tenant, session, timeout_s)
        return client

    async def _send(self, message: dict) -> None:
        self._writer.write(protocol.encode_message(message))
        await self._writer.drain()

    async def _read_some(self, timeout_s: float) -> bool:
        """Absorb one read; False when the server closed the stream."""
        try:
            data = await asyncio.wait_for(self._reader.read(65536),
                                          timeout=timeout_s)
        except asyncio.TimeoutError:
            return True
        if not data:
            return False
        for message in self._decoder.feed(data):
            self._absorb(message)
        return True

    def close(self) -> None:
        """Close the connection."""
        self._writer.close()

    async def bye(self, timeout_s: float = 30.0) -> list:
        """Graceful close: returns every event received in this session.

        Sends ``bye``, then reads until the server's answering ``bye``
        (which follows the final drain + flush tail) or the stream ends.
        """
        with contextlib.suppress(ConnectionError):
            await self._request(protocol.bye(), lambda: self._bye_seen,
                                "bye handshake", timeout_s)
        self.close()
        with contextlib.suppress(ConnectionError, OSError):
            await self._writer.wait_closed()
        return self.events
