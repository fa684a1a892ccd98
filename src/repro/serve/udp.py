"""UDP datagram transport for the serving protocol.

Thousands of battery-powered devices streaming 100 Hz sensor frames do
not want a TCP connection each: head-of-line blocking turns one lost
packet into a latency spike for every frame behind it, and connection
state is pure overhead for a fire-and-forget sensor feed.  This module
carries the *same* JSON messages as :mod:`repro.serve.protocol` over
UDP — one message per datagram, no length prefix (the datagram boundary
is the frame) — with **per-datagram session addressing**: since there is
no connection to hang identity on, every ``frames`` and ``bye`` datagram
carries its ``tenant``/``session`` fields and the server replies to the
datagram's source address (last seen wins, so a device re-appearing
behind a new NAT port keeps its session).  The server is the shared
:class:`~repro.serve.service.SessionService` behind a datagram adapter,
so it serves the same message set as the TCP server.

Loss and reordering need no protocol machinery at all: a dropped
datagram drops a run of frame indices, and the pipeline already turns
index gaps into interpolation (short) or a
:class:`~repro.core.events.StreamGap` (long), while a reordered datagram
surfaces as out-of-order frames the engine counts and discards.

What UDP deliberately does not guarantee here: event delivery.  Events
ride back as datagrams to the last known address; a lost event datagram
is gone (devices that need reliable event delivery use the TCP
front-end).  A reply that does not fit one datagram
(:data:`MAX_DATAGRAM_BYTES`) comes back as an ``error``.  The serving
metrics remain authoritative either way — they are recorded server-side
at dispatch.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import dataclass

from repro.obs.telemetry import TelemetryPlane
from repro.serve import protocol
from repro.serve.client import SessionClient
from repro.serve.service import EVENTS_PER_MESSAGE, SessionService
from repro.serve.session import SessionManager

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
#: Events per outgoing datagram: the service's bound on every
#: ``events`` message, which keeps each one inside a datagram.
EVENTS_PER_DATAGRAM = EVENTS_PER_MESSAGE


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


class _Inbox(asyncio.DatagramProtocol):
    """Queues every received datagram for one reader task."""

    def __init__(self) -> None:
        self.queue: asyncio.Queue[tuple[bytes, tuple]] = asyncio.Queue()

    def datagram_received(self, data: bytes, addr) -> None:
        self.queue.put_nowait((data, addr))


@dataclass(frozen=True)
class _DatagramPeer:
    """One source address, as the service sees it (equal by address)."""

    transport: asyncio.DatagramTransport
    addr: tuple

    async def send(self, message: dict) -> None:
        body = encode_datagram(message)
        with contextlib.suppress(OSError):
            self.transport.sendto(body, self.addr)

    def close(self) -> None:
        """A datagram peer has no connection to close."""


class UdpAirFingerServer(SessionService):
    """Datagram front-end over a shared :class:`SessionManager`.

    Takes the same parameters as
    :class:`~repro.serve.server.AirFingerServer`.  One reader task hands
    every datagram to the service in arrival order, with its source
    address as the peer.  A refused datagram gets an ``error`` reply
    and the server keeps serving: the next datagram may well be fine.

    May share its :class:`SessionManager` with a TCP
    :class:`~repro.serve.server.AirFingerServer` — sessions are keyed by
    (tenant, session), not by transport.
    """

    def __init__(self, manager: SessionManager,
                 host: str = "127.0.0.1", port: int = 0,
                 telemetry: TelemetryPlane | bool | None = True,
                 telemetry_interval_s: float = 1.0,
                 timeline_path=None,
                 wall_clock=time.time, mono_clock=time.monotonic) -> None:
        super().__init__(manager, telemetry=telemetry,
                         telemetry_interval_s=telemetry_interval_s,
                         timeline_path=timeline_path,
                         wall_clock=wall_clock, mono_clock=mono_clock)
        self.host = host
        self.port = port
        self._transport: asyncio.DatagramTransport | None = None
        self._reader: asyncio.Task | None = None

    async def start(self) -> None:
        """Bind the socket and start reading (+ background tasks)."""
        transport, inbox = await asyncio.get_running_loop(
            ).create_datagram_endpoint(_Inbox,
                                       local_addr=(self.host, self.port))
        self._transport = transport
        self.port = transport.get_extra_info("sockname")[1]
        self._reader = asyncio.create_task(self._read_loop(inbox.queue))
        await super().start()

    async def stop(self) -> None:
        """Cancel the reader and background tasks, close the socket."""
        if self._reader is not None:
            self._reader.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader
            self._reader = None
        await super().stop()
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    async def _read_loop(self, queue: asyncio.Queue) -> None:
        while True:
            data, addr = await queue.get()
            peer = _DatagramPeer(self._transport, addr)
            try:
                await self.handle(peer, decode_datagram(data))
            except Exception as exc:
                await self._send_error(peer, exc)
                if not isinstance(exc, protocol.ProtocolError):
                    asyncio.get_running_loop().call_exception_handler({
                        "message": f"datagram from {addr} failed",
                        "exception": exc})


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------

class _ClientInbox(asyncio.DatagramProtocol):
    """Queues every decodable datagram for the client to absorb."""

    def __init__(self) -> None:
        self.queue: asyncio.Queue[dict] = asyncio.Queue()

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            self.queue.put_nowait(decode_datagram(data))
        except protocol.ProtocolError:
            pass  # corrupt datagram: UDP promises nothing; drop it


class UdpServeClient(SessionClient):
    """One device session over the datagram transport.

    Everything but the transport is :class:`~repro.serve.client.
    SessionClient`'s, so it speaks the same calls as
    :class:`~repro.serve.client.ServeClient`.  Two things are its own:
    the ``hello`` and ``bye`` are resent on timeout (either datagram
    may be lost), and ``send_filter`` injects deterministic datagram
    loss for tests: it is called with each outgoing *frames* datagram's
    ordinal and the frame batch, and a falsy return drops the datagram
    before it touches the socket — exactly what a lossy radio link
    would do to it.
    """

    def __init__(self, transport: asyncio.DatagramTransport,
                 hello_ack: dict, send_filter=None,
                 clock=time.perf_counter) -> None:
        super().__init__(hello_ack, clock=clock)
        self._transport = transport
        self._incoming: asyncio.Queue[dict] = transport.get_protocol().queue
        self.tenant = ""
        self.session = ""
        self._send_filter = send_filter
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
        transport, _ = await asyncio.get_running_loop(
            ).create_datagram_endpoint(_ClientInbox,
                                       remote_addr=(host, port))
        client = cls(transport, {}, send_filter=send_filter)
        client.tenant = str(tenant)
        client.session = str(session)
        per_try = max(timeout_s / max(retries, 1), 0.05)
        for _attempt in range(max(retries, 1)):
            try:
                await client._hello(tenant, session, per_try)
                return client
            except TimeoutError:
                continue
        client.close()
        raise TimeoutError("hello_ack timed out over UDP")

    # ------------------------------------------------------------------
    async def _send(self, message: dict) -> None:
        self._transport.sendto(encode_datagram(message))

    async def _read_some(self, timeout_s: float) -> bool:
        """Absorb the next datagram (waiting up to *timeout_s*) and any
        queued behind it; a datagram socket never reports closed."""
        try:
            message = await asyncio.wait_for(self._incoming.get(),
                                             timeout=timeout_s)
        except asyncio.TimeoutError:
            return True
        self._absorb(message)
        while not self._incoming.empty():
            self._absorb(self._incoming.get_nowait())
        return True

    def close(self) -> None:
        """Close the socket."""
        self._transport.close()

    async def send_frames(self, frames) -> None:
        """Ship one frame batch as one datagram (subject to the filter)."""
        frames = list(frames)
        ordinal = self._frames_datagrams
        self._frames_datagrams += 1
        if self._send_filter is not None and not self._send_filter(
                ordinal, frames):
            self.dropped_datagrams += 1
            return
        await self._send(_with_session(
            protocol.frames_message(frames), self.tenant, self.session))

    async def bye(self, timeout_s: float = 30.0, retries: int = 5) -> list:
        """Graceful close; returns every event received in this session.

        The ``bye`` datagram is resent on timeout (it may be lost), and
        all event datagrams arriving before the server's answering
        ``bye`` are absorbed — the flush tail rides ahead of it.
        """
        per_try = max(timeout_s / max(retries, 1), 0.05)
        for _attempt in range(max(retries, 1)):
            try:
                await self._request(
                    _with_session(protocol.bye(), self.tenant,
                                  self.session),
                    lambda: self._bye_seen, "bye", per_try)
            except TimeoutError:
                continue
            except protocol.ProtocolError:
                pass  # "unknown session": a resend after the server closed
            break
        self.close()
        return self.events
