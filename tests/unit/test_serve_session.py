"""SessionManager unit tests: lifecycle, backpressure, batching, metrics."""

from __future__ import annotations

import pytest

from repro.acquisition.stream import RssFrame
from repro.core.events import StreamGap
from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, Tracer, stage_profiling
from repro.serve import ServeConfig, SessionManager


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def _manager(config: ServeConfig | None = None,
             clock: FakeClock | None = None,
             tracer: Tracer | None = None
             ) -> tuple[SessionManager, MetricsRegistry, FakeClock]:
    registry = MetricsRegistry()
    clock = clock or FakeClock()
    manager = SessionManager(
        config or ServeConfig(),
        engine_factory=lambda: AirFinger(metrics=registry,
                                         tracer=Tracer(sample=0.0)),
        metrics=registry, tracer=tracer or Tracer(sample=0.0),
        clock=clock)
    return manager, registry, clock


def _frames(start: int, n: int, rate_hz: float = 100.0) -> list[RssFrame]:
    return [RssFrame(index=start + i, time_s=(start + i) / rate_hz,
                     values=(5.0, 6.0))
            for i in range(n)]


def _counter(registry: MetricsRegistry, key: str) -> float:
    return registry.snapshot().counters.get(key, 0.0)


class TestLifecycle:
    def test_open_is_get_or_create(self):
        manager, registry, _ = _manager()
        a = manager.open("t0", "dev0")
        assert manager.open("t0", "dev0") is a
        assert manager.open("t0", "dev1") is not a
        assert manager.open("t1", "dev0") is not a
        assert len(manager.sessions()) == 3
        assert _counter(registry, 'serve.sessions_opened{tenant="t0"}') == 2
        assert _counter(registry, 'serve.sessions_opened{tenant="t1"}') == 1
        assert registry.snapshot().gauges["serve.sessions_open"] == 3

    def test_close_flushes_and_removes(self):
        manager, registry, _ = _manager()
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 40))
        tail = manager.close(session)
        assert session.closed
        assert manager.get("t0", "dev0") is None
        assert session.engine.frames_fed == 40  # drained before flush
        assert isinstance(tail, list)
        assert _counter(registry, 'serve.sessions_closed{tenant="t0"}') == 1
        assert registry.snapshot().gauges["serve.sessions_open"] == 0
        # double close is a no-op
        assert manager.close(session) == []
        assert _counter(registry, 'serve.sessions_closed{tenant="t0"}') == 1

    def test_idle_eviction_uses_injected_clock(self):
        config = ServeConfig(idle_timeout_s=30.0)
        manager, registry, clock = _manager(config)
        stale = manager.open("t0", "stale")
        manager.enqueue(stale, _frames(0, 10))
        clock.now += 29.0
        fresh = manager.open("t0", "fresh")
        manager.enqueue(fresh, _frames(0, 10))
        assert manager.evict_idle() == []     # nobody idle yet
        clock.now += 1.5                      # stale: 30.5s, fresh: 1.5s
        evicted = manager.evict_idle()
        assert [s.session_id for s, _ in evicted] == ["stale"]
        assert manager.get("t0", "stale") is None
        assert manager.get("t0", "fresh") is fresh
        assert _counter(registry,
                        'serve.sessions_evicted{tenant="t0"}') == 1
        assert _counter(registry, 'serve.sessions_closed{tenant="t0"}') == 0

    def test_close_emits_session_summary_span(self):
        tracer = Tracer(sample=1.0)
        manager, _, _ = _manager(tracer=tracer)
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 5))
        manager.close(session)
        spans = [s for s in tracer.finished_spans()
                 if s.name == "serve.session"]
        assert len(spans) == 1
        assert spans[0].attrs["tenant"] == "t0"
        assert spans[0].attrs["frames"] == 5


class TestBackpressure:
    def test_overflow_drops_oldest_and_counts(self):
        config = ServeConfig(max_queue_frames=100)
        manager, registry, _ = _manager(config)
        session = manager.open("t0", "dev0")
        assert manager.enqueue(session, _frames(0, 100)) == 0
        dropped = manager.enqueue(session, _frames(100, 30))
        assert dropped == 30
        assert session.pending == 100
        # oldest went first: the head of the queue is now frame 30
        assert session.queue[0][0].indices[0] == 30
        assert session.dropped == 30
        assert _counter(registry,
                        'serve.backpressure_drops{tenant="t0"}') == 30

    def test_drops_surface_as_stream_gap(self):
        """Dropped frames leave an index gap the engine reports."""
        config = ServeConfig(max_queue_frames=50, max_batch_frames=512)
        manager, _, _ = _manager(config)
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 50))
        events = manager.dispatch(session)          # consume 0..49
        # 100 more arrive while the pipeline is busy; queue keeps 50
        manager.enqueue(session, _frames(50, 100))
        assert session.queue[0][0].indices[0] == 100   # 50..99 dropped
        events += manager.dispatch(session)
        gaps = [e for e in events if isinstance(e, StreamGap)]
        assert len(gaps) == 1
        assert gaps[0].start_index == 50
        assert gaps[0].end_index == 100

    def test_volume_counters_count_offered_frames(self):
        manager, registry, _ = _manager()
        session = manager.open("acme", "dev3")
        manager.enqueue(session, _frames(0, 25))
        manager.enqueue(session, _frames(25, 25))
        assert _counter(registry, 'serve.frames{tenant="acme"}') == 50
        assert _counter(
            registry,
            'serve.session_frames{session="dev3",tenant="acme"}') == 50


class TestDispatch:
    def test_batch_respects_max_batch_frames(self):
        config = ServeConfig(max_batch_frames=64)
        manager, registry, _ = _manager(config)
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 150))
        manager.dispatch(session)
        assert session.pending == 86
        assert session.engine.frames_fed == 64
        manager.dispatch(session)
        manager.dispatch(session)
        assert session.pending == 0
        assert session.engine.frames_fed == 150
        snap = registry.snapshot()
        batches = snap.histograms["serve.dispatch_frames"]
        assert batches["count"] == 3
        assert batches["max"] == 64

    def test_dispatch_empty_queue_is_noop(self):
        manager, registry, _ = _manager()
        session = manager.open("t0", "dev0")
        assert manager.dispatch(session) == []
        assert registry.snapshot().histograms[
            "serve.dispatch_seconds"]["count"] == 0

    def test_events_match_direct_feed_block(self):
        manager, _, _ = _manager()
        session = manager.open("t0", "dev0")
        frames = _frames(0, 120)
        manager.enqueue(session, frames)
        got = []
        while session.pending:
            got.extend(manager.dispatch(session))
        got.extend(manager.close(session))
        ref_engine = AirFinger(metrics=MetricsRegistry(),
                               tracer=Tracer(sample=0.0))
        ref = ref_engine.feed_block(frames) + ref_engine.flush()
        assert [repr(e) for e in got] == [repr(e) for e in ref]

    def test_latency_slo_misses_counted(self):
        config = ServeConfig(latency_slo_s=0.05)
        manager, registry, clock = _manager(config)
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 30))
        clock.now += 0.1                            # everything misses
        manager.dispatch(session)
        assert _counter(registry, "serve.deadline_miss") == 30
        assert registry.snapshot().histograms[
            "serve.frame_latency_seconds"]["count"] == 30

    def test_dispatch_span_when_tracing(self):
        tracer = Tracer(sample=1.0)
        manager, _, _ = _manager(tracer=tracer)
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 20))
        manager.dispatch(session)
        spans = [s for s in tracer.finished_spans()
                 if s.name == "serve.dispatch"]
        assert len(spans) == 1
        assert spans[0].attrs["session"] == "dev0"
        assert "n_events" in spans[0].attrs

    def test_stage_clock_nests_under_dispatch(self):
        """One drain: the profile scope and the span wrap the engine's
        ``pipeline.block``, under which its stage clock books one
        ``pipeline.stage`` span and one profile leaf per timed stage."""
        tracer = Tracer(sample=1.0)
        manager = SessionManager(metrics=MetricsRegistry(), tracer=tracer)
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 20))
        with stage_profiling() as profile:
            manager.dispatch(session)
        spans = {s.span_id: s for s in tracer.finished_spans()}
        stages = [s for s in spans.values() if s.name == "pipeline.stage"]
        assert [s.attrs["stage"] for s in stages] == ["prefilter_sbc",
                                                      "segmentation"]
        for stage in stages:
            block = spans[stage.parent_id]
            assert block.name == "pipeline.block"
            assert spans[block.parent_id].name == "serve.dispatch"
        block = ("serve.dispatch", "pipeline.block")
        assert set(profile.stats()) == {
            block[:1], block, (*block, "prefilter_sbc"),
            (*block, "segmentation")}

    def test_untraced_unprofiled_drain_opens_no_span(self, monkeypatch):
        """No profile installed and the tracer off: the drain runs
        without entering a span."""
        manager, _, _ = _manager()
        monkeypatch.setattr(manager._tracer, "span", None)
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 20))
        assert manager.dispatch(session) == []
        assert session.pending == 0


class TestClockInjection:
    """Regression: enqueue/dispatch stamps must use the injected clock.

    The enqueue path used ``time.perf_counter()`` for the queue
    timestamps while eviction used the injected clock — so under a test
    (or virtual-time) clock, queueing latency silently measured the
    *host's* clock and the SLO accounting was untestable.  These tests
    fail against that behaviour.
    """

    def test_frame_latency_measured_on_injected_clock(self):
        config = ServeConfig(latency_slo_s=5.0)
        manager, registry, clock = _manager(config)
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 20))
        clock.now += 10.0          # frames sit queued for 10 virtual s
        manager.dispatch(session)
        hist = registry.snapshot().histograms[
            "serve.frame_latency_seconds"]
        assert hist["count"] == 20
        # with a frozen clock the latency is EXACTLY the virtual wait;
        # a perf_counter leak would record ~microseconds instead
        assert hist["min"] == pytest.approx(10.0)
        assert hist["max"] == pytest.approx(10.0)
        assert _counter(registry, "serve.deadline_miss") == 20

    def test_within_slo_on_injected_clock_counts_no_miss(self):
        config = ServeConfig(latency_slo_s=5.0)
        manager, registry, clock = _manager(config)
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 20))
        clock.now += 1.0
        manager.dispatch(session)
        assert _counter(registry, "serve.deadline_miss") == 0

    def test_enqueue_refreshes_idle_clock_coherently(self):
        """last_active and the queue stamps come from one clock read."""
        manager, _, clock = _manager()
        session = manager.open("t0", "dev0")
        clock.now += 7.0
        manager.enqueue(session, _frames(0, 5))
        assert session.last_active_s == clock.now
        assert all(enq_s == clock.now for _f, enq_s in session.queue)

    def test_batched_latency_matches_one_observe_per_frame(self):
        """Frames sharing an enqueue stamp are recorded with one
        ``observe_many``; the histogram must match a per-frame
        ``observe`` of every frame's wait, sum aside (float rounding)."""
        config = ServeConfig(latency_slo_s=0.05, max_batch_frames=512)
        manager, registry, clock = _manager(config)
        session = manager.open("t0", "dev0")
        stamps = []
        start = 0
        # four messages of uneven size, queued at different instants
        for n, wait_s in ((10, 0.02), (7, 0.035), (10, 0.001), (3, 0.0)):
            manager.enqueue(session, _frames(start, n))
            stamps += [clock.now] * n
            start += n
            clock.now += wait_s
        manager.dispatch(session)                 # one batch drains all
        assert session.pending == 0

        reference = MetricsRegistry()
        ref_hist = reference.histogram("serve.frame_latency_seconds")
        misses = 0
        for t_enq in stamps:
            ref_hist.observe(clock.now - t_enq)
            misses += clock.now - t_enq > config.latency_slo_s
        want = reference.snapshot().histograms[
            "serve.frame_latency_seconds"]
        got = registry.snapshot().histograms["serve.frame_latency_seconds"]
        assert got["sum"] == pytest.approx(want["sum"], rel=1e-12)
        for key in want:
            if key != "sum":
                assert got[key] == want[key], key
        assert 0 < misses < len(stamps)            # both sides of the SLO
        assert _counter(registry, "serve.deadline_miss") == misses


class TestSeriesRetirement:
    """Regression: per-session label series must die with the session.

    Under tenant/session churn the registry otherwise accumulates one
    ``serve.queue_depth{tenant=,session=}`` (and ``serve.session_frames``)
    series per session *ever*, growing without bound.
    """

    def test_close_retires_per_session_series(self):
        manager, registry, _ = _manager()
        session = manager.open("acme", "dev0")
        manager.enqueue(session, _frames(0, 10))
        snap = registry.snapshot()
        assert 'serve.queue_depth{session="dev0",tenant="acme"}' \
            in snap.gauges
        manager.close(session)
        snap = registry.snapshot()
        assert 'serve.queue_depth{session="dev0",tenant="acme"}' \
            not in snap.gauges
        assert 'serve.session_frames{session="dev0",tenant="acme"}' \
            not in snap.counters

    def test_eviction_retires_per_session_series(self):
        config = ServeConfig(idle_timeout_s=1.0)
        manager, registry, clock = _manager(config)
        session = manager.open("acme", "dev0")
        manager.enqueue(session, _frames(0, 10))
        clock.now += 2.0
        assert manager.evict_idle()
        snap = registry.snapshot()
        assert not any("dev0" in k for k in snap.gauges)
        assert not any("serve.session_frames" in k
                       for k in snap.counters)

    def test_churn_keeps_cardinality_bounded(self):
        """1 churned session ≈ 500 churned sessions, registry-wise."""
        manager, registry, _ = _manager()

        def churn(n: int) -> int:
            for i in range(n):
                s = manager.open(f"tenant{i}", f"dev{i}")
                manager.enqueue(s, _frames(0, 5))
                manager.close(s)
            return registry.series_count()

        baseline = churn(1)
        # per-tenant counters (sessions_opened/closed/frames) legitimately
        # grow with distinct tenants; per-SESSION series must not survive
        after = churn(500)
        snap = registry.snapshot()
        assert not any(k.startswith("serve.queue_depth")
                       for k in snap.gauges)
        assert not any(k.startswith("serve.session_frames")
                       for k in snap.counters)
        # tenant-labelled families (opened/closed/frames/events) grow 4
        # counters per distinct tenant; anything beyond that would be
        # the per-session leak this test pins
        assert after - baseline <= 4 * 501


class TestDetachAdopt:
    def test_detach_removes_without_flush(self):
        manager, registry, _ = _manager()
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 40))
        pending_before = session.pending
        detached = manager.detach(session)
        assert detached is session
        assert manager.get("t0", "dev0") is None
        assert session.pending == pending_before   # nothing dispatched
        assert session.engine.frames_fed == 0      # nothing flushed
        assert _counter(registry,
                        'serve.sessions_migrated{tenant="t0"}') == 1
        assert _counter(registry,
                        'serve.sessions_closed{tenant="t0"}') == 0
        assert registry.snapshot().gauges["serve.sessions_open"] == 0

    def test_adopt_registers_and_counts(self):
        manager, registry, _ = _manager()
        engine = manager.new_engine()
        session = manager.adopt("t0", "dev0", engine,
                                frames_in=100, events_out=7, dropped=3)
        assert manager.get("t0", "dev0") is session
        assert session.frames_in == 100
        assert session.events_out == 7
        assert session.dropped == 3
        assert _counter(registry,
                        'serve.sessions_restored{tenant="t0"}') == 1
        assert registry.snapshot().gauges["serve.sessions_open"] == 1

    def test_adopt_refuses_live_slot(self):
        manager, _, _ = _manager()
        manager.open("t0", "dev0")
        with pytest.raises(ValueError):
            manager.adopt("t0", "dev0", manager.new_engine())


class TestConfigAndStats:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_queue_frames=0)
        with pytest.raises(ValueError):
            ServeConfig(max_batch_frames=0)
        with pytest.raises(ValueError):
            ServeConfig(idle_timeout_s=0)
        with pytest.raises(ValueError):
            ServeConfig(latency_slo_s=0)

    def test_stats_snapshot(self):
        manager, _, clock = _manager()
        session = manager.open("t0", "dev0")
        manager.enqueue(session, _frames(0, 10))
        clock.now += 2.0
        stats = manager.stats()
        assert stats["sessions_open"] == 1
        (row,) = stats["sessions"]
        assert row["tenant"] == "t0"
        assert row["frames_in"] == 10
        assert row["pending"] == 10
        assert row["idle_s"] == pytest.approx(2.0)
