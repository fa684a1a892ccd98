"""Instrumentation overhead gates: repro.obs must stay under 5% slowdown.

The observability layer (``repro.obs``) is on by default in every hot
path — the 100 Hz pipeline, the batched campaign generator, the capture
chain.  That is only acceptable if recording is effectively free, so this
bench times the campaign-throughput workload twice, with a live registry
and with a disabled one, and asserts the enabled/disabled wall-clock
ratio stays below ``OVERHEAD_LIMIT``.  A second gate does the same for
span tracing (``REPRO_TRACE``, off by default): a fully-sampling tracer
must also stay under the limit, and the off-path (the default) rides the
first gate because both of its arms carry the tracing null checks.

All runs also produce bit-identical corpora: instrumentation never
touches an RNG stream.

A third gate measures the streaming engine itself: the five golden
streams through ``AirFinger.feed_block`` at 1, 10 and 256 frames per
call, with a live registry and a disabled one.  Both give ``repr``-equal
events; the cost of recording at each size is ledgered as a ratio and
as CPU µs per frame, and at the serve path's 10-frame blocks the ratio
must stay within ``ENGINE_OVERHEAD_LIMIT``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.core.pipeline import AirFinger
from repro.datasets import CampaignConfig, CampaignGenerator
from repro.obs import MetricsRegistry, Tracer, set_tracer

from conftest import print_header

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.golden.stream_cases import build_stream_cases  # noqa: E402

# Same scaled-down main campaign as test_campaign_throughput.py.
OVERHEAD_CONFIG = CampaignConfig(
    n_users=3, n_sessions=2, repetitions=2, seed=2020)
BATCH = 24
ROUNDS = 5
OVERHEAD_LIMIT = 1.05  # enabled may cost at most 5% over disabled

#: feed_block sizes: one frame (what ``feed`` is), the loadgen's 10-frame
#: messages, and feed_recording's default block
ENGINE_BLOCK_SIZES = (1, 10, 256)
ENGINE_ROUNDS = 7
ENGINE_GATED_BLOCK = 10
ENGINE_OVERHEAD_LIMIT = 1.10  # metrics may cost 10% at 10-frame blocks


def test_obs_overhead(benchmark, bench_report):
    print_header(
        "repro.obs instrumentation overhead — default-on must be ~free",
        "real-time recognition at 100 Hz; metrics may not tax the hot path")

    tasks = CampaignGenerator(config=OVERHEAD_CONFIG).plan_main_campaign()
    n = len(tasks)

    enabled_registry = MetricsRegistry(enabled=True)
    gen_off = CampaignGenerator(
        config=OVERHEAD_CONFIG, batch_size=BATCH,
        metrics=MetricsRegistry(enabled=False))
    gen_on = CampaignGenerator(
        config=OVERHEAD_CONFIG, batch_size=BATCH, metrics=enabled_registry)

    # warm up both paths (imports, caches, allocator), then time the two
    # modes interleaved so machine drift hits them equally; the gate
    # compares best-of-ROUNDS, which filters scheduler noise
    baseline = gen_off.capture_tasks(tasks)
    instrumented = gen_on.capture_tasks(tasks)
    disabled_s = enabled_s = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        baseline = gen_off.capture_tasks(tasks)
        disabled_s = min(disabled_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        instrumented = gen_on.capture_tasks(tasks)
        enabled_s = min(enabled_s, time.perf_counter() - t0)

    # one more instrumented round through pytest-benchmark for the report
    benchmark.pedantic(lambda: gen_on.capture_tasks(tasks),
                       rounds=1, iterations=1)

    # instrumentation must not perturb the output bits
    assert len(instrumented) == len(baseline) == n
    for a, b in zip(baseline[::7], instrumented[::7]):
        assert np.array_equal(a.recording.rss, b.recording.rss)

    # and it must actually have recorded the workload
    snap = enabled_registry.snapshot()
    assert snap.counters["campaign.tasks"] >= n
    assert snap.histograms["campaign.batch_seconds"]["count"] >= 1

    ratio = enabled_s / disabled_s
    bench_report.record("obs_overhead", "metrics", "overhead_ratio", ratio,
                        unit="x", direction="lower_is_better",
                        tolerance=0.05, scale={"n_samples": n})
    benchmark.extra_info["n_samples"] = n
    benchmark.extra_info["disabled_wall_s"] = round(disabled_s, 4)
    benchmark.extra_info["enabled_wall_s"] = round(enabled_s, 4)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)
    benchmark.extra_info["overhead_limit"] = OVERHEAD_LIMIT

    print(f"\nplan: {n} captures, interleaved best of {ROUNDS} rounds "
          f"per mode")
    print(f"{'mode':<22} {'wall':>9} {'samples/s':>11}")
    print(f"{'metrics disabled':<22} {disabled_s:>8.3f}s "
          f"{n/disabled_s:>11.1f}")
    print(f"{'metrics enabled':<22} {enabled_s:>8.3f}s "
          f"{n/enabled_s:>11.1f}")
    print(f"overhead: {100.0 * (ratio - 1.0):+.2f}% "
          f"(limit {100.0 * (OVERHEAD_LIMIT - 1.0):+.0f}%)")

    assert ratio <= OVERHEAD_LIMIT, (
        f"instrumentation overhead {ratio:.3f}x exceeds the "
        f"{OVERHEAD_LIMIT}x gate")


def test_trace_overhead(benchmark, bench_report):
    print_header(
        "repro.obs span tracing overhead — even fully-on must be cheap",
        "REPRO_TRACE=1 records a span per task/batch; gate is the same 5%")

    tasks = CampaignGenerator(config=OVERHEAD_CONFIG).plan_main_campaign()
    n = len(tasks)

    metrics = MetricsRegistry(enabled=False)  # isolate the tracing cost
    generator = CampaignGenerator(
        config=OVERHEAD_CONFIG, batch_size=BATCH, metrics=metrics)
    tracer_on = Tracer(sample=1.0)
    tracer_off = Tracer(sample=0.0)

    def run_with(tracer):
        previous = set_tracer(tracer)
        try:
            return generator.capture_tasks(tasks)
        finally:
            set_tracer(previous)

    baseline = run_with(tracer_off)
    traced = run_with(tracer_on)
    off_s = on_s = float("inf")
    for _ in range(ROUNDS):
        tracer_on.clear()
        t0 = time.perf_counter()
        baseline = run_with(tracer_off)
        off_s = min(off_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        traced = run_with(tracer_on)
        on_s = min(on_s, time.perf_counter() - t0)

    benchmark.pedantic(lambda: run_with(tracer_on), rounds=1, iterations=1)

    # tracing must not perturb the output bits
    assert len(traced) == len(baseline) == n
    for a, b in zip(baseline[::7], traced[::7]):
        assert np.array_equal(a.recording.rss, b.recording.rss)

    # and it must actually have recorded spans for the workload
    names = {s.name for s in tracer_on.finished_spans()}
    assert {"campaign.chunk", "campaign.task",
            "sampler.record_batch"} <= names
    assert tracer_off.finished_spans() == []

    ratio = on_s / off_s
    bench_report.record("obs_overhead", "tracing", "overhead_ratio", ratio,
                        unit="x", direction="lower_is_better",
                        tolerance=0.05, scale={"n_samples": n})
    benchmark.extra_info["n_samples"] = n
    benchmark.extra_info["trace_off_wall_s"] = round(off_s, 4)
    benchmark.extra_info["trace_on_wall_s"] = round(on_s, 4)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)
    benchmark.extra_info["overhead_limit"] = OVERHEAD_LIMIT

    print(f"\nplan: {n} captures, interleaved best of {ROUNDS} rounds "
          f"per mode")
    print(f"{'mode':<22} {'wall':>9} {'samples/s':>11}")
    print(f"{'tracing off':<22} {off_s:>8.3f}s {n/off_s:>11.1f}")
    print(f"{'tracing on':<22} {on_s:>8.3f}s {n/on_s:>11.1f}")
    print(f"overhead: {100.0 * (ratio - 1.0):+.2f}% "
          f"(limit {100.0 * (OVERHEAD_LIMIT - 1.0):+.0f}%)")

    assert ratio <= OVERHEAD_LIMIT, (
        f"tracing overhead {ratio:.3f}x exceeds the "
        f"{OVERHEAD_LIMIT}x gate")


def _engine_pass(streams, block, metrics) -> tuple[float, list[str]]:
    """CPU seconds of the golden *streams* in *block*-frame
    ``feed_block`` calls (plus each stream's flush), recording into
    *metrics*; and the ``repr`` of every event."""
    engines = [AirFinger(metrics=metrics, tracer=Tracer(sample=0.0))
               for _ in streams]
    calls = [[frames[i:i + block] for i in range(0, len(frames), block)]
             for frames in streams]
    events = []
    t0 = time.process_time()
    for engine, chunks in zip(engines, calls):
        for chunk in chunks:
            events.extend(engine.feed_block(chunk))
        events.extend(engine.flush())
    cpu_s = time.process_time() - t0
    return cpu_s, [repr(e) for e in events]


def test_engine_obs_overhead(bench_report):
    print_header(
        "repro.obs engine metrics cost — feed_block at 1, 10 and 256 "
        "frames per call",
        "every 100 Hz frame must fit its 10 ms budget; at the serve "
        "path's 10-frame blocks metrics may cost at most 10%")

    streams = [frames for _, frames in build_stream_cases()]
    n = sum(len(frames) for frames in streams)
    rows = []
    for block in ENGINE_BLOCK_SIZES:
        off_s = on_s = float("inf")
        for _ in range(ENGINE_ROUNDS):
            # interleaved, so a busy stretch of the host hits both sides
            t, off_events = _engine_pass(streams, block,
                                         MetricsRegistry(enabled=False))
            off_s = min(off_s, t)
            t, on_events = _engine_pass(streams, block,
                                        MetricsRegistry(enabled=True))
            on_s = min(on_s, t)
        # recording must not move an event bit
        assert on_events == off_events

        ratio = on_s / off_s
        cost_us = (on_s - off_s) / n * 1e6
        scale = {"n_frames": n, "block_frames": block}
        bench_report.record("obs_overhead", f"engine_block_{block}",
                            "overhead_ratio", ratio, unit="x",
                            direction="lower_is_better", tolerance=0.10,
                            scale=scale)
        # a difference of two noisy minima, near zero at large blocks:
        # informational, so only a doubling flags
        bench_report.record("obs_overhead", f"engine_block_{block}",
                            "overhead_us_per_frame", cost_us,
                            unit="us/frame", direction="lower_is_better",
                            tolerance=1.0, scale=scale)
        rows.append((block, off_s, on_s, ratio, cost_us))

    print(f"\n{n} golden-stream frames, least CPU of {ENGINE_ROUNDS} "
          f"interleaved rounds per mode")
    print(f"{'frames/call':>11} {'off us/fr':>10} {'on us/fr':>10} "
          f"{'ratio':>7} {'cost us/fr':>11}")
    for block, off_s, on_s, ratio, cost_us in rows:
        print(f"{block:>11} {off_s / n * 1e6:>10.2f} {on_s / n * 1e6:>10.2f} "
              f"{ratio:>6.3f}x {cost_us:>11.3f}")

    gated = {block: ratio for block, _, _, ratio, _ in rows}
    ratio = gated[ENGINE_GATED_BLOCK]
    assert ratio <= ENGINE_OVERHEAD_LIMIT, (
        f"engine metrics cost {ratio:.3f}x at {ENGINE_GATED_BLOCK}-frame "
        f"blocks exceeds the {ENGINE_OVERHEAD_LIMIT}x gate")
