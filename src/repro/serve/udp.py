"""UDP datagram transport for the serving protocol.

Thousands of battery-powered devices streaming 100 Hz sensor frames do
not want a TCP connection each: head-of-line blocking turns one lost
packet into a latency spike for every frame behind it, and connection
state is pure overhead for a fire-and-forget sensor feed.  This module
carries the *same* JSON messages as :mod:`repro.serve.protocol` over
UDP — one message per datagram, no length prefix (the datagram boundary
is the frame) — with **per-datagram session addressing**: since there is
no connection to hang identity on, every data-plane message carries its
``tenant``/``session`` fields and the server replies to the datagram's
source address (last seen wins, so a device re-appearing behind a new
NAT port keeps its session).

Loss and reordering need no protocol machinery at all: a dropped
datagram drops a run of frame indices, and the pipeline already turns
index gaps into interpolation (short) or a
:class:`~repro.core.events.StreamGap` (long), while a reordered datagram
surfaces as out-of-order frames the engine counts and discards.  The
loopback suite pins both halves of that contract: with no loss the UDP
event stream is ``repr``-identical to TCP's, and under a seeded drop
schedule the only divergence is the gap events themselves.

What UDP deliberately does not guarantee here: event delivery.  Events
ride back as datagrams to the last known address; a lost event datagram
is gone (devices that need reliable event delivery use the TCP front-end
or subscribe elsewhere).  The serving metrics remain authoritative
either way — they are recorded server-side at dispatch.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time

from repro.serve import protocol
from repro.serve.session import ServeSession, SessionManager

__all__ = [
    "MAX_DATAGRAM_BYTES",
    "EVENTS_PER_DATAGRAM",
    "encode_datagram",
    "decode_datagram",
    "UdpAirFingerServer",
    "UdpServeClient",
]

#: Refuse to build datagrams above this (safe under the common 64 KiB
#: UDP limit with headroom for IP/UDP headers and odd MTUs).
MAX_DATAGRAM_BYTES = 57344
#: Events per outgoing datagram; event payloads are ~200 bytes, so this
#: stays an order of magnitude under :data:`MAX_DATAGRAM_BYTES`.
EVENTS_PER_DATAGRAM = 120


def encode_datagram(message: dict) -> bytes:
    """One message as one datagram: the JSON body, no length prefix."""
    body = json.dumps(message, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")
    if len(body) > MAX_DATAGRAM_BYTES:
        raise protocol.ProtocolError(
            f"datagram of {len(body)} bytes exceeds the "
            f"{MAX_DATAGRAM_BYTES}-byte limit")
    return body


def decode_datagram(data: bytes) -> dict:
    """The inverse of :func:`encode_datagram`."""
    try:
        message = protocol.loads(data)
    except ValueError as exc:
        raise protocol.ProtocolError(f"undecodable datagram: {exc}")
    if not isinstance(message, dict) or "type" not in message:
        raise protocol.ProtocolError(
            "datagram must be a JSON object with a 'type' field")
    return message


def _with_session(message: dict, tenant: str, session: str) -> dict:
    """Stamp the per-datagram session address onto *message*."""
    message["tenant"] = str(tenant)
    message["session"] = str(session)
    return message


class _ServerProtocol(asyncio.DatagramProtocol):
    def __init__(self, server: "UdpAirFingerServer") -> None:
        self.server = server

    def connection_made(self, transport) -> None:
        self.server._transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.server._on_datagram(data, addr)


class UdpAirFingerServer:
    """Datagram front-end over a shared :class:`SessionManager`.

    Speaks the serve protocol one-message-per-datagram.  ``hello``
    registers (or re-addresses) a session and is answered with a
    ``hello_ack``; ``frames`` enqueue onto the session's bounded queue
    and wake an asyncio pump that drains through the manager's batching
    dispatch, sending events back in bounded chunks; ``bye`` drains,
    flushes and answers the tail events plus a final ``bye``.  An idle
    reaper evicts silent sessions exactly like the TCP server.

    May share its :class:`SessionManager` with a TCP
    :class:`~repro.serve.server.AirFingerServer` — sessions are keyed by
    (tenant, session), not by transport.
    """

    def __init__(self, manager: SessionManager,
                 host: str = "127.0.0.1", port: int = 0,
                 reuse_port: bool = False,
                 wall_clock=time.time, mono_clock=time.monotonic) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        self._wall_clock = wall_clock
        self._mono_clock = mono_clock
        self._started_mono = 0.0
        self._transport: asyncio.DatagramTransport | None = None
        #: last datagram source address per live session key
        self._peers: dict[tuple[str, str], tuple] = {}
        self._pumps: dict[tuple[str, str], asyncio.Task] = {}
        self._reaper: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _ServerProtocol(self),
            local_addr=(self.host, self.port), **kwargs)
        self._transport = transport
        self.port = transport.get_extra_info("sockname")[1]
        self._started_mono = self._mono_clock()
        self._reaper = asyncio.create_task(self._reap_idle())

    async def stop(self) -> None:
        if self._reaper is not None:
            self._reaper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reaper
            self._reaper = None
        for task in list(self._pumps.values()):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._pumps.clear()
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        self._peers.clear()

    async def __aenter__(self) -> "UdpAirFingerServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start` (0.0 before it); monotonic."""
        if not self._started_mono:
            return 0.0
        return self._mono_clock() - self._started_mono

    # ------------------------------------------------------------------
    # datagram handling
    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes, addr) -> None:
        try:
            message = decode_datagram(data)
            self._handle(message, addr)
        except protocol.ProtocolError as exc:
            self._sendto(protocol.error_message("protocol", str(exc)),
                         addr)

    def _handle(self, message: dict, addr) -> None:
        kind = message.get("type")
        if kind == "hello":
            tenant, session_id = protocol.check_hello(message)
            session = self.manager.open(tenant, session_id)
            self._peers[session.key] = addr
            self._sendto(protocol.hello_ack(
                session_id,
                heartbeat_interval_s=(
                    self.manager.config.heartbeat_interval_s),
                max_batch_frames=self.manager.config.max_batch_frames),
                addr)
        elif kind == "frames":
            session = self._session_of(message)
            self._peers[session.key] = addr
            self.manager.enqueue(session, protocol.decode_frames(message))
            self._wake_pump(session)
        elif kind == "heartbeat":
            t = message.get("t")
            if t is not None:
                self._sendto(protocol.heartbeat(echo=t), addr)
        elif kind == "stats":
            snapshot = self.manager.stats()
            snapshot["metrics"] = (
                self.manager.metrics.snapshot().to_dict())
            mono = self._mono_clock()
            uptime = (mono - self._started_mono
                      if self._started_mono else 0.0)
            self._sendto(protocol.stats_reply(
                snapshot, server_time_s=self._wall_clock(),
                server_mono_s=mono, uptime_s=uptime), addr)
        elif kind == "bye":
            session = self._session_of(message)
            self._peers[session.key] = addr
            asyncio.get_running_loop().create_task(
                self._close_session(session, addr))
        else:
            raise protocol.ProtocolError(
                f"unexpected datagram type {kind!r}")

    def _session_of(self, message: dict) -> ServeSession:
        tenant = message.get("tenant")
        session_id = message.get("session")
        if not tenant or not session_id:
            raise protocol.ProtocolError(
                "datagram carries no tenant/session address")
        session = self.manager.get(str(tenant), str(session_id))
        if session is None:
            raise protocol.ProtocolError(
                f"unknown session {tenant!r}/{session_id!r} "
                f"(hello first; it may also have been evicted)")
        return session

    # ------------------------------------------------------------------
    # dispatch pump
    # ------------------------------------------------------------------
    def _wake_pump(self, session: ServeSession) -> None:
        task = self._pumps.get(session.key)
        if task is None or task.done():
            self._pumps[session.key] = asyncio.get_running_loop(
                ).create_task(self._pump(session))

    async def _pump(self, session: ServeSession) -> None:
        try:
            while session.pending and not session.closed:
                events = self.manager.dispatch(session)
                self._send_events(session, events)
                # yield between batches so fresh datagrams interleave
                await asyncio.sleep(0)
        finally:
            self._pumps.pop(session.key, None)

    async def _close_session(self, session: ServeSession, addr) -> None:
        pump = self._pumps.pop(session.key, None)
        if pump is not None and not pump.done():
            pump.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await pump
        tail = self.manager.close(session, reason="bye")
        self._send_events(session, tail, addr=addr)
        self._sendto(protocol.bye(), addr)
        self._peers.pop(session.key, None)

    async def _reap_idle(self) -> None:
        config = self.manager.config
        interval_s = min(config.idle_timeout_s / 4,
                         config.heartbeat_interval_s)
        while True:
            await asyncio.sleep(interval_s)
            for session, tail in self.manager.evict_idle():
                addr = self._peers.pop(session.key, None)
                pump = self._pumps.pop(session.key, None)
                if pump is not None and not pump.done():
                    pump.cancel()
                if addr is not None:
                    self._send_events(session, tail, addr=addr)
                    self._sendto(protocol.bye(), addr)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _send_events(self, session: ServeSession, events: list,
                     addr=None) -> None:
        if not events:
            return
        if addr is None:
            addr = self._peers.get(session.key)
        if addr is None:
            return
        for i in range(0, len(events), EVENTS_PER_DATAGRAM):
            chunk = events[i:i + EVENTS_PER_DATAGRAM]
            self._sendto(protocol.events_message(chunk), addr)

    def _sendto(self, message: dict, addr) -> None:
        if self._transport is None:
            return
        with contextlib.suppress(OSError):
            self._transport.sendto(encode_datagram(message), addr)


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------

class _ClientProtocol(asyncio.DatagramProtocol):
    def __init__(self, client: "UdpServeClient") -> None:
        self.client = client

    def connection_made(self, transport) -> None:
        pass

    def datagram_received(self, data: bytes, addr) -> None:
        self.client._on_datagram(data)


class UdpServeClient:
    """One device session over the datagram transport.

    Mirrors :class:`~repro.serve.client.ServeClient` for the data plane:
    connect (hello/hello_ack with bounded resends — the hello itself may
    be lost), ``send_frames``, ``pump`` to absorb event datagrams, and a
    ``bye`` handshake returning every received event.

    ``send_filter`` injects deterministic datagram loss for tests: it is
    called with each outgoing *frames* datagram's ordinal and the frame
    batch, and a falsy return drops the datagram before it touches the
    socket — exactly what a lossy radio link would do to it.
    """

    def __init__(self, transport: asyncio.DatagramTransport,
                 hello_ack: dict, send_filter=None,
                 clock=time.perf_counter) -> None:
        self._transport = transport
        self.hello_ack = hello_ack
        self.tenant = ""
        self.session = ""
        self._send_filter = send_filter
        self._clock = clock
        self._incoming: asyncio.Queue[dict] = asyncio.Queue()
        #: every decoded pipeline event received so far, in wire order
        self.events: list = []
        self.heartbeats = 0
        self.rtts_s: list[float] = []
        self._stats: dict | None = None
        self._bye_seen = False
        self._frames_datagrams = 0
        self.dropped_datagrams = 0

    @classmethod
    async def connect(cls, host: str, port: int, tenant: str,
                      session: str, timeout_s: float = 10.0,
                      send_filter=None, retries: int = 5
                      ) -> "UdpServeClient":
        """Resolve the endpoint and complete the hello handshake.

        Retries the hello up to *retries* times (the handshake datagrams
        themselves may be lost); each attempt waits ``timeout_s /
        retries``.
        """
        loop = asyncio.get_running_loop()
        transport, proto = await loop.create_datagram_endpoint(
            lambda: _ClientProtocol(None), remote_addr=(host, port))
        client = cls(transport, {}, send_filter=send_filter)
        proto.client = client  # wire up before any datagram can arrive
        client.tenant = str(tenant)
        client.session = str(session)
        per_try = max(timeout_s / max(retries, 1), 0.05)
        for _attempt in range(max(retries, 1)):
            transport.sendto(encode_datagram(
                protocol.hello(tenant, session)))
            try:
                message = await asyncio.wait_for(client._incoming.get(),
                                                 timeout=per_try)
            except asyncio.TimeoutError:
                continue
            if message.get("type") == "error":
                raise protocol.ProtocolError(
                    f"handshake rejected: {message.get('detail')}")
            if message.get("type") == "hello_ack":
                client.hello_ack = message
                return client
            client._absorb(message)
        transport.close()
        raise TimeoutError("hello_ack timed out over UDP")

    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes) -> None:
        try:
            self._incoming.put_nowait(decode_datagram(data))
        except protocol.ProtocolError:
            pass  # corrupt datagram: UDP promises nothing; drop it

    def _absorb(self, message: dict) -> None:
        kind = message.get("type")
        if kind == "events":
            self.events.extend(protocol.decode_events(message))
        elif kind == "heartbeat":
            self.heartbeats += 1
            echo = message.get("echo")
            if echo is not None:
                self.rtts_s.append(
                    max(self._clock() - float(echo), 0.0))
        elif kind == "stats_reply":
            self._stats = message.get("metrics")
        elif kind == "bye":
            self._bye_seen = True
        elif kind == "error":
            raise protocol.ProtocolError(
                f"server error: {message.get('detail')}")

    async def _drain(self, timeout_s: float) -> None:
        try:
            message = await asyncio.wait_for(self._incoming.get(),
                                             timeout=timeout_s)
        except asyncio.TimeoutError:
            return
        self._absorb(message)
        while True:
            try:
                self._absorb(self._incoming.get_nowait())
            except asyncio.QueueEmpty:
                return

    # ------------------------------------------------------------------
    def _sendto(self, message: dict) -> None:
        self._transport.sendto(encode_datagram(message))

    async def send_frames(self, frames) -> None:
        """Ship one frame batch as one datagram (subject to the filter)."""
        frames = list(frames)
        ordinal = self._frames_datagrams
        self._frames_datagrams += 1
        if self._send_filter is not None and not self._send_filter(
                ordinal, frames):
            self.dropped_datagrams += 1
            return
        self._sendto(_with_session(
            protocol.frames_message(frames), self.tenant, self.session))

    async def pump(self, timeout_s: float = 0.001) -> None:
        """Opportunistically absorb any datagrams already received."""
        await self._drain(timeout_s)

    async def ping(self, timeout_s: float = 10.0) -> float:
        """One heartbeat round trip; returns the RTT in seconds."""
        seen = len(self.rtts_s)
        self._sendto(protocol.heartbeat(t=self._clock()))
        deadline = asyncio.get_running_loop().time() + timeout_s
        while len(self.rtts_s) == seen:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise TimeoutError("heartbeat echo timed out")
            await self._drain(remaining)
        return self.rtts_s[-1]

    async def stats(self, timeout_s: float = 10.0) -> dict:
        """Fetch the server's stats snapshot (includes metrics)."""
        self._stats = None
        self._sendto(protocol.stats_request())
        deadline = asyncio.get_running_loop().time() + timeout_s
        while self._stats is None:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise TimeoutError("stats reply timed out")
            await self._drain(remaining)
        return self._stats

    async def bye(self, timeout_s: float = 30.0, retries: int = 5) -> list:
        """Graceful close; returns every event received in this session.

        The ``bye`` datagram is resent on timeout (it may be lost), and
        all event datagrams arriving before the server's answering
        ``bye`` are absorbed — the flush tail rides ahead of it.
        """
        per_try = max(timeout_s / max(retries, 1), 0.05)
        for _attempt in range(max(retries, 1)):
            self._sendto(_with_session(
                protocol.bye(), self.tenant, self.session))
            deadline = asyncio.get_running_loop().time() + per_try
            while not self._bye_seen:
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    break
                try:
                    await self._drain(remaining)
                except protocol.ProtocolError:
                    # "unknown session": a bye resend after the server
                    # already closed — the handshake is complete
                    self._bye_seen = True
            if self._bye_seen:
                break
        self._transport.close()
        return self.events
