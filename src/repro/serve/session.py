"""Multi-stream session management: N devices, one engine each.

The :class:`SessionManager` is the transport-agnostic heart of the
serving layer: it owns one :class:`~repro.core.pipeline.AirFinger`
instance per device stream, a bounded ingest queue in front of each (of
:class:`~repro.acquisition.stream.FrameBlock` chunks, counted in
frames), and the batching policy that drains those queues through
:meth:`~repro.core.pipeline.AirFinger.feed_block`, one block per drain.
The asyncio front-end (:mod:`repro.serve.server`) and the tests drive it
directly; nothing in here does I/O.

Backpressure is explicit, never silent: a session whose queue is full
drops its **oldest** queued frames (freshest-data-wins — a live gesture
recognizer that falls behind should sacrifice history, not latency),
counts every drop under ``serve.backpressure_drops{tenant=...}``, and the
dropped indices then surface downstream as ordinary pipeline
:class:`~repro.core.events.StreamGap` events, because the engine sees an
index gap exactly as if the radio had dropped the packets.

Metrics (all on the manager's registry):

* ``serve.sessions_opened/closed/evicted{tenant=...}`` counters and the
  ``serve.sessions_open`` gauge;
* ``serve.frames{tenant=...}`` / ``serve.events{tenant=...}`` volume
  counters, plus per-session ``serve.session_frames{tenant=,session=}``;
* ``serve.backpressure_drops{tenant=...}``;
* the ``serve.queue_depth{tenant=,session=}`` gauge — instantaneous
  ingest backlog per session, the telemetry plane's earliest congestion
  signal.  Per-session series (this gauge and ``serve.session_frames``)
  are retired when their session closes or is evicted, so registry
  cardinality tracks live sessions, not lifetime session churn;
* ``serve.frame_latency_seconds`` — enqueue→processed latency per frame,
  with ``serve.deadline_miss`` counting frames over the configured SLO;
* ``serve.dispatch_seconds`` / ``serve.dispatch_frames`` histograms for
  the drain batches.

When the tracer samples, each drain runs under a ``serve.dispatch`` span
(tenant/session/frame-count attributes) and each closed session emits a
``serve.session`` summary span carrying its lifetime totals.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.acquisition.stream import FrameBlock, RssFrame
from repro.core.pipeline import AirFinger
from repro.obs import (MetricsRegistry, Tracer, get_registry,
                       get_stage_profile, get_tracer)

__all__ = ["ServeConfig", "ServeSession", "SessionManager"]


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of the serving layer.

    Parameters
    ----------
    max_queue_frames:
        Per-session ingest queue bound; ~40 s of 100 Hz backlog by
        default.  Beyond it the oldest queued frames are dropped.
    max_batch_frames:
        Upper bound on one ``feed_block`` batch per drain; bounds
        worst-case dispatch time so one backlogged session cannot starve
        its neighbours on the shared event loop.
    idle_timeout_s:
        A session with no frames for this long is evicted (flushed +
        closed).
    heartbeat_interval_s:
        Silence interval after which the server pings a connection.
    latency_slo_s:
        Enqueue→processed budget per frame; frames over it count into
        ``serve.deadline_miss``.  Default 50 ms — five 100 Hz frame
        periods, tight enough that a human-visible lag registers.
    """

    max_queue_frames: int = 4096
    max_batch_frames: int = 512
    idle_timeout_s: float = 30.0
    heartbeat_interval_s: float = 5.0
    latency_slo_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_queue_frames < 1:
            raise ValueError("max_queue_frames must be >= 1")
        if self.max_batch_frames < 1:
            raise ValueError("max_batch_frames must be >= 1")
        if self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be > 0")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")
        if self.latency_slo_s <= 0:
            raise ValueError("latency_slo_s must be > 0")


class ServeSession:
    """One device stream: its engine, its queue, its counters.

    Not thread-safe on its own — the owning :class:`SessionManager`
    serializes access (the asyncio server is single-threaded; a threaded
    front-end must dispatch a session from one worker at a time).
    """

    __slots__ = ("tenant", "session_id", "engine", "queue", "pending",
                 "dropped", "frames_in", "events_out", "opened_s",
                 "last_active_s", "closed", "queue_gauge", "frame_counters",
                 "events_counter")

    def __init__(self, tenant: str, session_id: str, engine: AirFinger,
                 now_s: float) -> None:
        self.tenant = tenant
        self.session_id = session_id
        self.engine = engine
        #: (frames, enqueue stamp) chunks awaiting dispatch, oldest first
        self.queue: deque[tuple[FrameBlock, float]] = deque()
        #: frames queued but not yet dispatched
        self.pending = 0
        self.dropped = 0
        self.frames_in = 0
        self.events_out = 0
        self.opened_s = now_s
        self.last_active_s = now_s
        self.closed = False
        #: ``serve.queue_depth`` gauge, bound by the owning manager
        self.queue_gauge = None
        #: ``serve.frames`` / ``serve.session_frames`` and
        #: ``serve.events`` handles, bound by the manager on first use
        self.frame_counters = None
        self.events_counter = None

    @property
    def key(self) -> tuple[str, str]:
        """The (tenant, session_id) identity this session is stored under."""
        return (self.tenant, self.session_id)


class SessionManager:
    """Owns every live :class:`ServeSession` and the dispatch policy.

    Parameters
    ----------
    config:
        Serving knobs (:class:`ServeConfig`).
    engine_factory:
        Zero-argument callable building a fresh per-session
        :class:`AirFinger`.  The default builds a bare engine (no fitted
        detector) recording into this manager's registry; pass a factory
        closing over a loaded model stack to serve real recognition.
    metrics / tracer:
        Observability sinks; default to the process globals.
    clock:
        Injectable monotonic clock (``time.monotonic``).  Every manager
        timestamp runs through it — idle eviction, enqueue stamps and
        the dispatch timing that feeds ``serve.frame_latency_seconds`` /
        ``serve.deadline_miss`` — so frozen-clock tests drive the full
        latency accounting deterministically.
    """

    def __init__(self, config: ServeConfig | None = None,
                 engine_factory: Callable[[], AirFinger] | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config if config is not None else ServeConfig()
        self._metrics = metrics if metrics is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._clock = clock
        if engine_factory is None:
            engine_factory = lambda: AirFinger(metrics=self._metrics,
                                               tracer=self._tracer)
        self._engine_factory = engine_factory
        self._sessions: dict[tuple[str, str], ServeSession] = {}
        m = self._metrics
        self._g_open = m.gauge("serve.sessions_open")
        self._h_latency = m.histogram("serve.frame_latency_seconds")
        self._h_dispatch = m.histogram("serve.dispatch_seconds")
        self._h_batch = m.histogram(
            "serve.dispatch_frames",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))
        self._c_slo_miss = m.counter("serve.deadline_miss")

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry every serve and pipeline series records into."""
        return self._metrics

    def new_engine(self) -> AirFinger:
        """A fresh engine from this manager's factory.

        The restore path builds the destination engine here, so a
        migrated session gets the same models and config as a session
        opened natively on this manager.
        """
        return self._engine_factory()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, tenant: str, session_id: str) -> ServeSession:
        """Get-or-create the session (tenant, session_id)."""
        key = (tenant, session_id)
        session = self._sessions.get(key)
        if session is not None:
            return session
        session = ServeSession(tenant, session_id, self._engine_factory(),
                               self._clock())
        self._sessions[key] = session
        session.queue_gauge = self._metrics.gauge(
            "serve.queue_depth", tenant=tenant, session=session_id)
        self._metrics.counter("serve.sessions_opened", tenant=tenant).inc()
        self._g_open.set(len(self._sessions))
        return session

    def get(self, tenant: str, session_id: str) -> ServeSession | None:
        """The live session for (tenant, session_id), if any."""
        return self._sessions.get((tenant, session_id))

    def sessions(self) -> list[ServeSession]:
        """Snapshot list of the live sessions."""
        return list(self._sessions.values())

    def close(self, session: ServeSession, reason: str = "bye") -> list:
        """Drain + flush *session*, remove it; returns the tail events."""
        if session.closed:
            return []
        events: list = []
        while session.pending:
            events.extend(self.dispatch(session))
        events.extend(session.engine.flush())
        session.events_out += len(events)
        session.closed = True
        self._retire(session)
        counter = ("serve.sessions_evicted" if reason == "idle"
                   else "serve.sessions_closed")
        self._metrics.counter(counter, tenant=session.tenant).inc()
        self._g_open.set(len(self._sessions))
        if self._tracer.active:
            # a point span summarizing the whole session lifetime
            with self._tracer.span(
                    "serve.session", tenant=session.tenant,
                    session=session.session_id, reason=reason,
                    frames=session.frames_in, events=session.events_out,
                    dropped=session.dropped,
                    lifetime_s=self._clock() - session.opened_s):
                pass
        return events

    def _retire(self, session: ServeSession) -> None:
        """Remove *session* from the table and retire its metric series.

        Per-session series are minted on ``open``; leaving them behind
        would grow the registry without bound under session churn
        (thousands of short-lived devices), so eviction and close retire
        them here and snapshot cardinality tracks only live sessions.
        """
        self._sessions.pop(session.key, None)
        session.queue_gauge = None
        session.frame_counters = None
        self._metrics.remove("serve.queue_depth", tenant=session.tenant,
                             session=session.session_id)
        self._metrics.remove("serve.session_frames", tenant=session.tenant,
                             session=session.session_id)

    def detach(self, session: ServeSession) -> ServeSession:
        """Remove *session* without dispatching or flushing its engine.

        The checkpoint path (:mod:`repro.serve.checkpoint`) captures the
        engine state and the still-queued frames first, then detaches —
        unlike :meth:`close`, nothing is drained, so an open gesture
        segment survives the migration instead of being force-flushed.
        """
        if session.closed:
            return session
        session.closed = True
        self._retire(session)
        self._metrics.counter("serve.sessions_migrated",
                              tenant=session.tenant).inc()
        self._g_open.set(len(self._sessions))
        return session

    def adopt(self, tenant: str, session_id: str, engine: AirFinger,
              *, frames_in: int = 0, events_out: int = 0,
              dropped: int = 0) -> ServeSession:
        """Register a session around an externally-restored *engine*.

        The restore path's counterpart to :meth:`detach`: the session
        enters the table with its lifetime counters carried over and its
        activity stamp reset on this manager's clock.  Raises if the
        (tenant, session_id) slot is already live.
        """
        key = (tenant, session_id)
        if key in self._sessions:
            raise ValueError(
                f"session {key!r} is already live on this manager")
        session = ServeSession(tenant, session_id, engine, self._clock())
        session.frames_in = frames_in
        session.events_out = events_out
        session.dropped = dropped
        self._sessions[key] = session
        session.queue_gauge = self._metrics.gauge(
            "serve.queue_depth", tenant=tenant, session=session_id)
        self._metrics.counter("serve.sessions_restored", tenant=tenant).inc()
        self._g_open.set(len(self._sessions))
        return session

    def evict_idle(self) -> list[tuple[ServeSession, list]]:
        """Close every session idle past the timeout.

        Returns ``(session, tail_events)`` pairs so the transport can
        still deliver the flush output before dropping the connection.
        """
        now_s = self._clock()
        idle = [s for s in self._sessions.values()
                if now_s - s.last_active_s >= self.config.idle_timeout_s]
        return [(s, self.close(s, reason="idle")) for s in idle]

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def enqueue(self, session: ServeSession,
                frames: FrameBlock | Iterable[RssFrame]) -> int:
        """Queue *frames* as one chunk; returns how many frames were dropped.

        Overflow drops the **oldest** queued frames: the engine then sees
        an index gap and emits a :class:`StreamGap`, so lost data is
        always visible in the event stream, never silently swallowed.
        """
        if not isinstance(frames, FrameBlock):
            frames = FrameBlock.from_frames(frames)
        now = self._clock()
        queue = session.queue
        n = len(frames.indices)
        if n:
            queue.append((frames, now))
        session.frames_in += n
        session.last_active_s = now
        dropped = max(0, session.pending + n - self.config.max_queue_frames)
        session.pending += n - dropped
        if dropped:
            # whole chunks go first, oldest first; then the head is cut
            excess = dropped
            while len(queue[0][0]) <= excess:
                excess -= len(queue.popleft()[0])
            if excess:
                block, t_enq = queue[0]
                queue[0] = (block[excess:], t_enq)
            session.dropped += dropped
            self._metrics.counter("serve.backpressure_drops",
                                  tenant=session.tenant).inc(dropped)
        if session.queue_gauge is not None:
            session.queue_gauge.set(session.pending)
        counters = session.frame_counters
        if counters is None:
            counters = session.frame_counters = (
                self._metrics.counter("serve.frames", tenant=session.tenant),
                self._metrics.counter("serve.session_frames",
                                      tenant=session.tenant,
                                      session=session.session_id))
        for counter in counters:
            counter.inc(n)
        return dropped

    def dispatch(self, session: ServeSession) -> list:
        """Drain up to ``max_batch_frames`` queued frames; returns events."""
        if not session.queue:
            return []
        prof = get_stage_profile()
        if prof is None and not self._tracer.active:
            return self._dispatch(session)
        # the engine's pipeline.block entries nest under both; the scope's
        # exclusive time is the queue-drain/bookkeeping glue
        scope = (prof.scope("serve.dispatch") if prof is not None
                 else nullcontext())
        with scope, self._tracer.span("serve.dispatch", tenant=session.tenant,
                                      session=session.session_id) as span:
            events = self._dispatch(session)
            span.set_attr(n_events=len(events))
            return events

    def _dispatch(self, session: ServeSession) -> list:
        t_start = self._clock()
        chunks: list[tuple[FrameBlock, float, int]] = []
        queue = session.queue
        limit = room = self.config.max_batch_frames
        while queue and room:
            block, t_enq = queue.popleft()
            k = len(block.indices)
            if k > room:
                queue.appendleft((block[room:], t_enq))
                block, k = block[:room], room
            chunks.append((block, t_enq, k))
            room -= k
        batch = (chunks[0][0] if len(chunks) == 1
                 else FrameBlock.concat([chunk[0] for chunk in chunks]))
        session.pending -= limit - room
        if session.queue_gauge is not None:
            session.queue_gauge.set(session.pending)
        events = session.engine.feed_block(batch)
        session.events_out += len(events)
        t_done = self._clock()
        if session.events_counter is None:
            session.events_counter = self._metrics.counter(
                "serve.events", tenant=session.tenant)
        session.events_counter.inc(len(events))
        self._h_dispatch.observe(t_done - t_start)
        self._h_batch.observe(limit - room)
        slo = self.config.latency_slo_s
        misses = 0
        for _, t_enq, k in chunks:
            # a chunk's frames share its stamp: they waited alike
            wait_s = t_done - t_enq
            self._h_latency.observe_many(wait_s, k)
            if wait_s > slo:
                misses += k
        if misses:
            self._c_slo_miss.inc(misses)
        return events

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Plain-data view of the live sessions (the ``stats`` reply)."""
        now_s = self._clock()
        return {
            "sessions_open": len(self._sessions),
            "sessions": [
                {"tenant": s.tenant, "session": s.session_id,
                 "frames_in": s.frames_in, "events_out": s.events_out,
                 "pending": s.pending, "dropped": s.dropped,
                 "idle_s": now_s - s.last_active_s}
                for s in self._sessions.values()],
        }
