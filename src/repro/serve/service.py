"""One serving core for every transport: the session service.

:class:`SessionService` is everything about serving device streams that
does not depend on how the bytes travel:

* the **message switch** — ``hello``, ``frames``, ``heartbeat``,
  ``stats``, ``watch``, ``checkpoint``, ``restore`` and ``bye``;
* one **pump** per session — it waits on a wake event the switch sets
  after every frame batch, drains the queue through the manager's
  batching dispatch and sends the events back.  Consecutive wakes
  coalesce, so a client sending faster than the pipeline drains gets
  fewer, larger ``feed_block`` batches instead of an unbounded task
  pile-up.  During output silence the pump sends heartbeats; after a
  ``bye`` it drains, flushes, sends the tail events and a ``bye``, and
  lets the peer go;
* the **idle reaper**, which evicts sessions silent past
  ``ServeConfig.idle_timeout_s`` and delivers their flush tail first;
* the **telemetry loop**: every ``telemetry_interval_s`` it samples the
  :class:`~repro.obs.telemetry.TelemetryPlane`, optionally appends the
  tick to a JSONL timeline, and pushes it to every ``watch`` subscriber.

The TCP (:mod:`repro.serve.server`) and UDP (:mod:`repro.serve.udp`)
servers subclass it and keep two jobs: turn bytes into messages and
back, and decide what a refused message does to the link.  Their only
contract with the service is a *peer*: an object with ``async
send(message)`` and ``close()``, handed to :meth:`SessionService.handle`
with every message it sent.  A peer that cannot carry a message raises
``ValueError`` (:class:`~repro.serve.protocol.ProtocolError`) from
``send``; a vanished one raises ``ConnectionError``/``OSError``.

``frames`` and ``bye`` act on the session their ``tenant``/``session``
fields name, or else on the session the peer said ``hello`` for.  The
datagram transport addresses every datagram that way, and the last
sender wins, so a device re-appearing behind a new NAT port keeps its
session.  Every other message needs a peer that said ``hello``.  A
``frames`` message whose frames disagree on their channel count, or
whose count differs from the frames the session has accepted, is
refused with a protocol error; the session is kept.

All pipeline work runs inline on the event loop — sessions are
CPU-bound and share one core per server process; horizontal scale is
one process per core (:mod:`repro.serve.shard`).
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time

from repro.obs.telemetry import TelemetryPlane, TimelineWriter
from repro.serve import checkpoint as ckpt
from repro.serve import protocol
from repro.serve.session import ServeConfig, ServeSession, SessionManager

__all__ = ["EVENTS_PER_MESSAGE", "SessionService"]

#: Most events one ``events`` message carries.  Event payloads are ~200
#: bytes, so a full message stays an order of magnitude under one
#: datagram (:data:`repro.serve.udp.MAX_DATAGRAM_BYTES`).
EVENTS_PER_MESSAGE = 120


def _finite(value, what: str) -> float:
    """*value* as a finite float, or a :class:`ProtocolError`."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise protocol.ProtocolError(
            f"{what} must be a number, got {value!r:.40}") from None
    if not math.isfinite(number):
        raise protocol.ProtocolError(f"{what} must be finite, got {value!r}")
    return number


def _check_channel_count(session: ServeSession, frames: list) -> None:
    """Refuse *frames* that disagree on their channel count, or whose
    count differs from the frames *session* already accepted (a restored
    session's engine knows its count): an engine cannot change its width
    mid-stream."""
    if not frames:
        return
    width = len(frames[0].values)
    if any(len(frame.values) != width for frame in frames):
        raise protocol.ProtocolError("frames disagree on channel count")
    if session.queue:
        accepted = len(session.queue[-1][0].values)
    else:
        accepted = session.engine.n_channels
    if accepted is not None and width != accepted:
        raise protocol.ProtocolError(
            f"frames have {width} channels; this session's have {accepted}")


class _Link:
    """One live session's serving state: its peer, wake event and pump."""

    __slots__ = ("session", "peer", "wake", "pump", "closing", "said_bye")

    def __init__(self, session: ServeSession, peer) -> None:
        self.session = session
        #: where events go: the last peer that said hello or addressed it
        self.peer = peer
        self.wake = asyncio.Event()
        self.pump: asyncio.Task | None = None
        self.closing = False
        self.said_bye = False


class SessionService:
    """The transport-independent half of a serve front-end.

    Parameters
    ----------
    manager:
        The session manager doing the actual work; one per server.
    telemetry:
        ``True`` (default) builds a :class:`TelemetryPlane` over the
        manager's registry; pass a pre-configured plane (custom policy,
        thresholds, clocks) or ``False``/``None`` to disable live
        telemetry — ``watch`` then fails with a protocol error.
    telemetry_interval_s:
        Sampling cadence of the default-built plane.
    timeline_path:
        When set, every telemetry tick is appended to this JSONL file
        (replayable with ``airfinger telemetry``).
    wall_clock / mono_clock:
        Injectable time sources.  The wall clock (``time.time``) only
        ever stamps ``server_time_s`` for human display and cross-host
        correlation; every duration — uptime, rates — derives from the
        monotonic clock, so an NTP step never bends a measurement.
        Tests inject both to pin that contract.
    """

    def __init__(self, manager: SessionManager,
                 telemetry: TelemetryPlane | bool | None = True,
                 telemetry_interval_s: float = 1.0,
                 timeline_path=None,
                 wall_clock=time.time, mono_clock=time.monotonic) -> None:
        self.manager = manager
        self._wall_clock = wall_clock
        self._mono_clock = mono_clock
        if telemetry is True:
            telemetry = TelemetryPlane(metrics=manager.metrics,
                                       interval_s=telemetry_interval_s)
        elif telemetry is False:
            telemetry = None
        self.telemetry: TelemetryPlane | None = telemetry
        self.timeline_path = timeline_path
        self._timeline: TimelineWriter | None = None
        self._tasks: list[asyncio.Task] = []
        self._started_wall = 0.0
        self._started_mono = 0.0
        #: live links by session key
        self._links: dict[tuple[str, str], _Link] = {}
        #: the link each peer said hello for (or last addressed)
        self._bound: dict[object, _Link] = {}
        #: ``watch`` subscribers: peer -> [push every Nth tick, phase]
        self._watchers: dict[object, list[int]] = {}

    @property
    def config(self) -> ServeConfig:
        return self.manager.config

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the reaper and, with telemetry on, the telemetry loop."""
        self._started_wall = self._wall_clock()
        self._started_mono = self._mono_clock()
        self._tasks.append(asyncio.create_task(self._reap_idle()))
        if self.telemetry is not None:
            if self.timeline_path is not None:
                self._timeline = TimelineWriter(self.timeline_path)
            self._tasks.append(asyncio.create_task(self._telemetry_loop()))

    async def stop(self) -> None:
        """Cancel the background tasks and every pump; let every peer go."""
        tasks = self._tasks + [link.pump for link in self._links.values()]
        for link in list(self._links.values()):
            self._abandon(link)
        self._tasks = []
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._timeline is not None:
            self._timeline.close()
            self._timeline = None

    async def serve_forever(self) -> None:
        """Serve until cancelled (the ``airfinger serve`` entry point)."""
        if not self._tasks:
            await self.start()
        try:
            await asyncio.Event().wait()
        finally:
            await self.stop()

    async def __aenter__(self):
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

    def clock_stamps(self) -> tuple[float, float, float]:
        """``(server_time_s, server_mono_s, uptime_s)`` read coherently.

        One read per clock: the wall stamp is display-only, while the
        monotonic stamp and the uptime derive from the *same* monotonic
        reading — so two ``stats_reply`` messages always diff into a
        positive elapsed time, no matter what NTP did to the wall clock
        in between.
        """
        wall = self._wall_clock()
        mono = self._mono_clock()
        uptime = mono - self._started_mono if self._started_mono else 0.0
        return wall, mono, uptime

    # ------------------------------------------------------------------
    # the message switch
    # ------------------------------------------------------------------
    async def handle(self, peer, message: dict) -> None:
        """Act on one *message* from *peer*; replies go to *peer*.

        Raises :class:`~repro.serve.protocol.ProtocolError` for a message
        the service refuses; the transport decides what that does to
        the link.
        """
        kind = message.get("type")
        if kind == "frames":
            link = self._link_of(peer, message)
            frames = protocol.decode_frames(message)
            _check_channel_count(link.session, frames)
            self.manager.enqueue(link.session, frames)
            link.wake.set()
        elif kind == "hello":
            await self._hello(peer, message)
        elif kind == "bye":
            link = self._link_of(peer, message)
            link.said_bye = True
            link.wake.set()
        elif peer not in self._bound:
            raise protocol.ProtocolError(
                f"{kind!r:.40} before hello (or after the session ended)")
        elif kind == "heartbeat":
            # a timestamped ping wants its `t` echoed back (client RTT)
            t = message.get("t")
            if t is not None:
                await peer.send(protocol.heartbeat(
                    echo=_finite(t, "heartbeat t")))
        elif kind == "stats":
            snapshot = await self._stats_payload()
            wall, mono, uptime = self.clock_stamps()
            await peer.send(protocol.stats_reply(
                snapshot, server_time_s=wall, server_mono_s=mono,
                uptime_s=uptime))
        elif kind == "watch":
            self._watch(peer, message)
        elif kind == "checkpoint":
            await self._checkpoint(peer, message)
        elif kind == "restore":
            await self._restore(peer, message)
        else:
            raise protocol.ProtocolError(
                f"unexpected message type {kind!r:.40}")

    async def _hello(self, peer, message: dict) -> None:
        tenant, session_id = protocol.check_hello(message)
        session = self.manager.open(tenant, session_id)
        link = self._links.get(session.key)
        if link is None or link.session is not session:
            if link is not None:
                self._unlink(link)  # its session ended elsewhere
            link = _Link(session, peer)
            self._links[session.key] = link
            link.pump = asyncio.create_task(self._pump(link))
        self._readdress(link, peer)
        await peer.send(self._hello_ack_message(session_id))

    def _hello_ack_message(self, session_id: str) -> dict:
        """The handshake answer; fleet front-ends add a shard listing."""
        return protocol.hello_ack(
            session_id,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
            max_batch_frames=self.config.max_batch_frames)

    def _link_of(self, peer, message: dict) -> _Link:
        """The link a ``frames``/``bye`` message acts on."""
        tenant = message.get("tenant")
        session_id = message.get("session")
        if tenant is None and session_id is None:
            link = self._bound.get(peer)
            if link is None:
                raise protocol.ProtocolError(
                    f"{message['type']!r} before hello "
                    f"(or after the session ended)")
            return link
        link = self._links.get((str(tenant), str(session_id)))
        if link is None:
            raise protocol.ProtocolError(
                f"unknown session {tenant!r:.40}/{session_id!r:.40} "
                f"(hello first; it may also have been evicted)")
        if link.peer != peer:
            self._readdress(link, peer)
        return link

    def _readdress(self, link: _Link, peer) -> None:
        """Send *link*'s output to *peer* from now on (last seen wins)."""
        if self._bound.get(link.peer) is link:
            del self._bound[link.peer]
        link.peer = peer
        self._bound[peer] = link

    async def _stats_payload(self) -> dict:
        """The ``stats_reply`` body; fleet front-ends merge shards here."""
        snapshot = self.manager.stats()
        snapshot["metrics"] = self.manager.metrics.snapshot().to_dict()
        return snapshot

    def _watch(self, peer, message: dict) -> None:
        if self.telemetry is None:
            raise protocol.ProtocolError(
                "telemetry is disabled on this server; watch unavailable")
        interval = message.get("interval_s")
        every = 1
        if interval is not None:
            interval = _finite(interval, "watch interval_s")
            if interval <= 0:
                self._watchers.pop(peer, None)
                return
            # never push faster than the plane samples; round a slower
            # request to the nearest whole number of ticks
            every = max(1, round(interval / self.telemetry.interval_s))
        self._watchers[peer] = [every, 0]

    # ------------------------------------------------------------------
    # migration control
    # ------------------------------------------------------------------
    async def _checkpoint(self, peer, message: dict) -> None:
        """Capture + detach a session; reply its serialized state."""
        tenant = message.get("tenant")
        session_id = message.get("session")
        target = self.manager.get(str(tenant), str(session_id))
        if target is None:
            await peer.send(protocol.checkpoint_reply(
                None, error=f"no live session {tenant!r:.40}/"
                            f"{session_id!r:.40}"))
            return
        # drop the device's link first so no frame can slip into the
        # session between capture and detach
        owner = self._links.get(target.key)
        if owner is not None:
            self._unlink(owner)
            if owner.peer != peer:
                owner.peer.close()
        state = ckpt.checkpoint_session(self.manager, target)
        try:
            await peer.send(protocol.checkpoint_reply(state))
        except (ValueError, ConnectionError, OSError):
            # the state never left (a datagram too small for it, or the
            # requester vanished): keep the session here, not lost
            ckpt.restore_session(self.manager, state)
            raise

    async def _restore(self, peer, message: dict) -> None:
        """Adopt a checkpointed session shipped by a shard peer."""
        try:
            session = ckpt.restore_session(self.manager,
                                           message.get("state"))
        except (ValueError, KeyError, TypeError) as exc:
            await peer.send(protocol.restore_reply(
                None, error=f"restore failed: {exc}"))
            return
        await peer.send(protocol.restore_reply(session.session_id))

    # ------------------------------------------------------------------
    # pump, link endings, reaper
    # ------------------------------------------------------------------
    async def _pump(self, link: _Link) -> None:
        """Dispatch *link*'s queued frames and send its events until the
        link ends; an engine failure ends the link with an error."""
        session = link.session
        heartbeat_s = self.config.heartbeat_interval_s
        try:
            while not link.closing and not session.closed:
                try:
                    await asyncio.wait_for(link.wake.wait(),
                                           timeout=heartbeat_s)
                except asyncio.TimeoutError:
                    await self._deliver(link.peer, protocol.heartbeat())
                    continue
                link.wake.clear()
                while (session.pending and not session.closed
                       and not link.closing):
                    await self._send_events(link.peer,
                                            self.manager.dispatch(session))
                    # yield so fresh messages can enqueue (and so other
                    # sessions' pumps interleave between batches)
                    await asyncio.sleep(0)
                if link.said_bye and not link.closing:
                    await self._end(link, self.manager.close(
                        session, reason="bye"))
        except Exception as exc:
            await self._send_error(link.peer, exc)
            self._abandon(link)
            asyncio.get_running_loop().call_exception_handler({
                "message": f"serve pump for session {session.key} failed",
                "exception": exc})

    def _unlink(self, link: _Link) -> None:
        """Forget *link*: stop its pump, unbind its peer, end its watch."""
        link.closing = True
        link.wake.set()
        if self._links.get(link.session.key) is link:
            del self._links[link.session.key]
        if self._bound.get(link.peer) is link:
            del self._bound[link.peer]
        self._watchers.pop(link.peer, None)

    def _abandon(self, link: _Link) -> None:
        """End *link* with no goodbye; its session stays on the manager."""
        self._unlink(link)
        link.peer.close()

    async def _end(self, link: _Link, tail: list) -> None:
        """Deliver a closed session's tail events and ``bye``; let the
        peer go."""
        self._unlink(link)
        await self._send_events(link.peer, tail)
        await self._deliver(link.peer, protocol.bye())
        link.peer.close()

    def disconnect(self, peer) -> None:
        """*peer* is gone (its connection ended): stop the pump of the
        session it carried.  The session stays on the manager for a
        reconnecting ``hello`` or the reaper."""
        self._watchers.pop(peer, None)
        link = self._bound.get(peer)
        if link is not None and link.peer == peer:
            self._abandon(link)

    async def _reap_idle(self) -> None:
        interval_s = min(self.config.idle_timeout_s / 4,
                         self.config.heartbeat_interval_s)
        while True:
            await asyncio.sleep(interval_s)
            for session, tail in self.manager.evict_idle():
                link = self._links.get(session.key)
                if link is not None and link.session is session:
                    await self._end(link, tail)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    async def _telemetry_tick(self) -> dict:
        """One telemetry sample; fleet front-ends refresh shards first."""
        return self.telemetry.tick()

    async def _telemetry_loop(self) -> None:
        while True:
            await asyncio.sleep(self.telemetry.interval_s)
            tick = await self._telemetry_tick()
            if self._timeline is not None:
                self._timeline.write(tick)
            message = None
            for peer, subscription in list(self._watchers.items()):
                subscription[1] += 1
                if subscription[1] < subscription[0]:
                    continue
                subscription[1] = 0
                if message is None:
                    message = protocol.telemetry_message(tick)
                await self._deliver(peer, message)

    # ------------------------------------------------------------------
    # sends
    # ------------------------------------------------------------------
    async def _send_events(self, peer, events: list) -> None:
        for i in range(0, len(events), EVENTS_PER_MESSAGE):
            await self._deliver(peer, protocol.events_message(
                events[i:i + EVENTS_PER_MESSAGE]))

    async def _deliver(self, peer, message: dict) -> None:
        """Send a message no request waits on.

        A vanished peer is the reaper's business; a message the peer
        cannot carry (too large for a datagram, a non-finite number)
        becomes an ``error`` instead of ending the sender.
        """
        try:
            await peer.send(message)
        except (ConnectionError, OSError):
            pass
        except ValueError as exc:
            await self._send_error(peer, exc)

    async def _send_error(self, peer, exc: Exception) -> None:
        """Tell *peer* why its message was refused or its session failed."""
        if isinstance(exc, protocol.ProtocolError):
            code, detail = "protocol", str(exc)
        else:
            code, detail = "internal", f"{type(exc).__name__}: {exc}"
        with contextlib.suppress(Exception):
            await peer.send(protocol.error_message(code, detail))
