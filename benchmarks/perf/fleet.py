"""``fleet_idle`` / ``fleet_dense``: the serve core in-process, open loop.

N simulated 100 Hz devices feed one :class:`SessionManager` through the
path a server takes — pre-encoded bytes → ``MessageDecoder.feed`` →
``decode_frames`` → ``SessionManager.enqueue`` → ``dispatch`` →
``events_message`` / ``encode_message`` — but without sockets, on a
CPU-time virtual clock (:class:`~harness.CpuVirtualClock`).  Each
message is stamped at its due instant; ready sessions are dispatched in
arrival order; idle gaps are skipped.  A message's latency runs from its
due instant to the return of the dispatch that drained its last frame.

Every repetition opens fresh sessions and replays the same windows, so
repetitions do identical work: each message's arrival (decode +
enqueue) and its share of the dispatch that drained it are charged the
least CPU they had in any repetition, and each message the least latency
(:func:`harness.unit_min`).  A repetition is kept small (3 200 frames)
so that a run holds enough of them for those minima to settle.
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass

import harness as h
import layers
from repro.acquisition.stream import stream_frames
from repro.obs import MetricsRegistry, Tracer
from repro.serve import ServeConfig, SessionManager, protocol


@dataclass(frozen=True)
class FleetShape:
    users: int
    sessions_per_user: int
    dense: bool
    fault_intensity: float = 0.0

    @property
    def sessions(self) -> int:
        return self.users * self.sessions_per_user

    @property
    def capture_frames(self) -> int:
        """The windows of one user's sessions tile its capture exactly."""
        return self.sessions_per_user * h.WINDOW_FRAMES


#: 16 sessions; each user gestures once per 8 s capture
IDLE = FleetShape(users=4, sessions_per_user=4, dense=False)
#: 16 sessions; gestures 0.5 s apart, frame drops and channel dropouts
DENSE = FleetShape(users=8, sessions_per_user=2, dense=True,
                   fault_intensity=0.3)


def captures(shape: FleetShape, seed: int) -> list:
    if shape.dense:
        return h.dense_captures(seed, shape.users, shape.capture_frames,
                                shape.fault_intensity)
    return [list(stream_frames(rec)) for rec in
            h.idle_captures(seed, shape.users, shape.capture_frames)]


@dataclass
class Device:
    """One session's window: its frames and its pre-encoded messages."""

    frames: list
    #: (due_s, n_frames, payload bytes)
    messages: list


def devices(shape: FleetShape, capture_list: list) -> list[Device]:
    """Session ``(u, j)`` replays user ``u``'s capture rotated by
    ``r_u + j * WINDOW_FRAMES``.  The per-user phase ``r_u`` spreads the
    users' gestures over the repetition, so sessions do not all reach
    their expensive frames at once; message stagger spreads arrivals
    over each 100 ms period."""
    n = shape.sessions
    period_s = h.FRAMES_PER_MESSAGE / h.RATE_HZ
    length = shape.capture_frames
    out = []
    for u, capture in enumerate(capture_list):
        phase_u = (u * length) // shape.users
        for j in range(shape.sessions_per_user):
            frames = h.rotate(capture, phase_u + j * h.WINDOW_FRAMES,
                              length, limit=h.WINDOW_FRAMES)
            stagger_s = (len(out) / n) * period_s
            messages = [(stagger_s + (k + 1) * period_s, len(batch),
                         h.encode_frames(batch))
                        for k, batch in h.split_messages(frames)]
            out.append(Device(frames=frames, messages=messages))
    return out


@dataclass
class Rep:
    cpu_s: float
    frames: int
    #: per message: ``(session, k, "in")`` its decode + enqueue CPU,
    #: ``(session, k, "out")`` its share of the dispatch + encode that
    #: drained it
    unit_cpu_s: dict
    #: per message: due instant -> return of the draining dispatch
    latency_s: dict
    #: the messages whose draining dispatch closed a segment
    closing: set
    events: list
    snapshot: object
    segments: int
    useful: int
    encoded: int
    bytes_in: int
    trace: layers.LayerTrace | None

    @property
    def glue_s(self) -> float:
        """CPU of the repetition outside every message's units."""
        return self.cpu_s - sum(self.unit_cpu_s.values())


def run_rep(detector, devs: list[Device], trace=None) -> Rep:
    """One repetition: fresh manager + sessions, every window replayed.

    With a :class:`~layers.LayerTrace`, the timed loop (and only it)
    runs with the layer wrappers installed.
    """
    clock = h.CpuVirtualClock()
    registry = MetricsRegistry()
    manager = SessionManager(
        ServeConfig(), engine_factory=h.engine_factory(detector, registry),
        metrics=registry, tracer=Tracer(sample=0.0), clock=clock)
    sessions = [manager.open(h.TENANT, f"dev{s:03d}")
                for s in range(len(devs))]
    decoders = [protocol.MessageDecoder() for _ in devs]
    arrivals = sorted((due, s, k) for s, dev in enumerate(devs)
                      for k, (due, _n, _p) in enumerate(dev.messages))
    # per session: [k, due_s, frames not yet drained] of queued messages
    pending = [deque() for _ in devs]
    carry = [0.0] * len(devs)       # dispatch CPU not yet charged
    unit_cpu: dict = {}
    latency: dict = {}
    closing: set = set()
    events = [[] for _ in devs]
    ready: deque[int] = deque()
    encoded = 0
    bytes_in = 0
    cpu = h.cpu_s

    h.quiesce()
    if trace is not None:
        trace.wait_clock = clock
        trace.install()
    clock.reset(0.0)
    t0 = cpu()
    i = 0
    n_arrivals = len(arrivals)
    while True:
        now = clock()
        while i < n_arrivals and arrivals[i][0] <= now:
            due, s, k = arrivals[i]
            i += 1
            _due, n_frames, payload = devs[s].messages[k]
            u0 = cpu()
            clock.freeze(due)
            for message in decoders[s].feed(payload):
                manager.enqueue(sessions[s], protocol.decode_frames(message))
            clock.thaw()
            unit_cpu[s, k, "in"] = cpu() - u0
            bytes_in += len(payload)
            pending[s].append([k, due, n_frames])
            ready.append(s)
        if ready:
            s = ready.popleft()
            session = sessions[s]
            before = session.pending
            if not before:
                continue
            u0 = cpu()
            out = manager.dispatch(session)
            done = clock()
            if out:
                protocol.encode_message(protocol.events_message(out))
            carry[s] += cpu() - u0
            if out:
                encoded += len(out)
                events[s].extend(out)
            drained = before - session.pending
            queue = pending[s]
            finished = []
            while drained and queue:
                head = queue[0]
                take = min(drained, head[2])
                head[2] -= take
                drained -= take
                if head[2] == 0:
                    finished.append(head[0])
                    latency[s, head[0]] = done - head[1]
                    queue.popleft()
            for k in finished:
                unit_cpu[s, k, "out"] = carry[s] / len(finished)
            if finished:
                carry[s] = 0.0
                if out and h.closes_segment(out):
                    closing.add((s, finished[-1]))
        elif i < n_arrivals:
            clock.advance_to(arrivals[i][0])
        else:
            break
    rep_cpu = cpu() - t0
    if trace is not None:
        trace.uninstall()

    segments, useful = layers.event_counts(e for out in events for e in out)
    # the end-of-window flush is not serving work: close untimed
    for s, session in enumerate(sessions):
        events[s].extend(manager.close(session))
    return Rep(cpu_s=rep_cpu, frames=sum(len(d.frames) for d in devs),
               unit_cpu_s=unit_cpu, latency_s=latency, closing=closing,
               events=events,
               snapshot=registry.snapshot(), segments=segments,
               useful=useful, encoded=encoded, bytes_in=bytes_in,
               trace=trace)


def _open_fleet(detector, n_sessions: int) -> None:
    """The serving half of set-up: a manager with every session open."""
    registry = MetricsRegistry()
    manager = SessionManager(
        ServeConfig(), engine_factory=h.engine_factory(detector, registry),
        metrics=registry, tracer=Tracer(sample=0.0))
    for s in range(n_sessions):
        manager.open(h.TENANT, f"dev{s:03d}")


def run(shape: FleetShape, seed: int, seconds: float,
        traced: bool) -> h.Result:
    devs = devices(shape, captures(shape, seed))
    stats = h.timed_setups(lambda detector: _open_fleet(detector, len(devs)))
    detector = stats.detector
    run_rep(detector, devs)                     # warm-up

    reps = h.repeat(seconds, lambda _i, t: run_rep(
        detector, devs, layers.LayerTrace() if t else None), traced)
    rss_mb = h.peak_rss_mb()

    refs = [h.digest(h.replay(detector, d.frames)) for d in devs]
    attempted = failed = 0
    for rep in reps:
        attempted += rep.frames
        failed += sum(len(d.frames)
                      for d, out, ref in zip(devs, rep.events, refs)
                      if h.digest(out) != ref)
    plain = [r for r in reps if r.trace is None]
    notes = {
        "repetitions": len(plain),
        "messages_per_repetition": len(plain[0].latency_s),
        "error_rate": failed / attempted,
        "slo_miss_rate": (
            sum(r.snapshot.counters["serve.deadline_miss"] for r in plain)
            / sum(r.frames for r in plain)),
        "backpressure_drops": sum(h.drops(r.snapshot) for r in reps),
    }
    if not traced:
        latency = h.unit_min([r.latency_s for r in plain])
        cpu = (sum(h.unit_min([r.unit_cpu_s for r in plain]).values())
               + min(r.glue_s for r in plain))
        values = list(latency.values())
        notes["latency_p50_ms"] = 1e3 * h.percentile(values, 50)
        notes["latency_p99_ms"] = 1e3 * h.percentile(values, 99)
        notes["segment_latency_ms"] = 1e3 * h.percentile(
            [latency[k] for k in plain[0].closing], 50)
        metrics = {
            "setup_s": stats.setup_s,
            "frames_per_cpu_s": plain[0].frames / cpu,
            "latency_mean_ms": 1e3 * statistics.fmean(values),
            "rss_mb": rss_mb,
        }
        return h.Result(metrics, attempted, failed, notes)

    traced_reps = [r for r in reps if r.trace is not None]
    frames = sum(r.frames for r in traced_reps)
    cpu = sum(r.cpu_s for r in traced_reps)
    metrics = layers.layer_metrics(
        layers.merge([r.trace.snapshot() for r in traced_reps]),
        frames=frames, traced_cpu_s=cpu,
        overhead_share=h.overhead_share(traced_reps, plain),
        segments=sum(r.segments for r in traced_reps),
        useful=sum(r.useful for r in traced_reps),
        encoded=sum(r.encoded for r in traced_reps),
        bytes_in=sum(r.bytes_in for r in traced_reps),
        faults=sum(h.faults(r.snapshot) for r in traced_reps),
        drops=sum(h.drops(r.snapshot) for r in traced_reps))
    return h.Result(metrics, attempted, failed, notes,
                    closure_ok=h.closure_ok(metrics, cpu, frames))
