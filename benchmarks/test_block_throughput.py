"""Offline-replay throughput: per-frame ``feed`` vs vectorized ``feed_block``.

The block path batches calibration, ChannelGuard verdicts, the dynamic
threshold segmenter and feature extraction into stacked numpy while
emitting the *exact* event sequence of N scalar ``feed`` calls — the
bit-identity contract is pinned by the golden-trace corpus
(``tests/golden/stream_traces.json``) and the property suite, and
re-asserted here on the committed corpus before timing anything.

Both timed engines run with ``live_update_every=0``: offline consumers
(``feed_recording``, the eval protocols) never read non-final
``ScrollUpdate`` frames, so disabling the live-preview cadence is the
honest offline-replay configuration — it changes no event any offline
caller observes.

The gates: ``feed_block`` at the offline block size must replay a long
idle-dominated session at >= 10x the frames/sec of the scalar loop, and
at the 10-frame serving batch it must cost no more CPU per frame than
scalar ``feed`` on the same session.  Wall-clock and frames/sec for both
paths land in the benchmark JSON via ``benchmark.extra_info``, mirroring
``test_campaign_throughput.py``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.acquisition.stream import stream_frames
from repro.core.pipeline import AirFinger
from repro.datasets import CampaignConfig, CampaignGenerator
from repro.obs import MetricsRegistry

from conftest import print_header

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.golden.stream_cases import (  # noqa: E402
    build_stream_cases,
    load_committed_traces,
    trace_events,
)

BLOCK_SIZE = 4096
SPEEDUP_TARGET = 10.0
# Long idle-dominated session: the realistic duty cycle (a gesture every
# minute or so) where offline replay spends its time.
STREAM_GESTURES = ("circle", "click", "rub")
STREAM_IDLE_S = 60.0
STREAM_LEAD_IN_S = 30.0
STREAM_SEED = 902
# The serving batch: the loadgen and the fleet workloads send 10 frames
# per message, and SessionManager hands each drained batch to feed_block.
SERVE_BATCH = 10
SERVE_RATIO_TARGET = 1.0
SERVE_ROUNDS = 3


def _idle_session():
    generator = CampaignGenerator(CampaignConfig(
        n_users=1, n_sessions=1, repetitions=1, seed=STREAM_SEED))
    return generator.stream(
        0, list(STREAM_GESTURES), idle_s=STREAM_IDLE_S,
        lead_in_s=STREAM_LEAD_IN_S).recording


def _offline_engine() -> AirFinger:
    return AirFinger(live_update_every=0)


def _scalar_replay(frames) -> list:
    engine = _offline_engine()
    events = []
    for frame in frames:
        events.extend(engine.feed(frame))
    events.extend(engine.flush())
    return events


def test_block_replay_matches_golden_corpus():
    """The committed golden traces replay bit-identically through blocks."""
    committed = load_committed_traces()
    for name, frames in build_stream_cases():
        assert trace_events(frames, block_size=BLOCK_SIZE) == committed[name], (
            f"block replay diverged from the committed trace for {name!r}")


def test_block_throughput(benchmark, bench_report):
    print_header(
        "Offline replay throughput — vectorized feed_block hot path",
        "stream replay dominates every robustness sweep and stream "
        "evaluation; block mode must clear >= 10x the scalar loop")

    recording = _idle_session()
    frames = list(stream_frames(recording))
    n = len(frames)

    scalar_s = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        scalar_events = _scalar_replay(frames)
        scalar_s = min(scalar_s, time.perf_counter() - t0)

    def run_block():
        engine = _offline_engine()
        return engine.feed_recording(recording, block_size=BLOCK_SIZE)

    block_events = benchmark.pedantic(run_block, rounds=5, iterations=1,
                                      warmup_rounds=1)
    block_s = min(benchmark.stats.stats.data)

    # equivalence first: same bits, or the speedup is meaningless
    assert ([repr(e) for e in block_events]
            == [repr(e) for e in scalar_events])

    speedup = scalar_s / block_s
    benchmark.extra_info["n_frames"] = n
    benchmark.extra_info["block_size"] = BLOCK_SIZE
    benchmark.extra_info["scalar_wall_s"] = round(scalar_s, 4)
    benchmark.extra_info["block_wall_s"] = round(block_s, 4)
    benchmark.extra_info["scalar_frames_per_sec"] = round(n / scalar_s, 1)
    benchmark.extra_info["block_frames_per_sec"] = round(n / block_s, 1)
    benchmark.extra_info["speedup_block_vs_scalar"] = round(speedup, 2)

    scale = {"n_frames": n, "block_size": BLOCK_SIZE}
    bench_report.record("block", "idle_stream_replay",
                        "block_frames_per_sec", n / block_s,
                        unit="frames/s", scale=scale)
    bench_report.record("block", "idle_stream_replay",
                        "speedup_block_vs_scalar", speedup, unit="x",
                        scale=scale)

    print(f"\nstream: {n} frames ({n / 100.0:.0f} s of 100 Hz session, "
          f"{len(scalar_events)} events)")
    print(f"{'mode':<26} {'wall':>9} {'frames/s':>11} {'speedup':>9}")
    print(f"{'scalar (per-frame feed)':<26} {scalar_s:>8.3f}s "
          f"{n / scalar_s:>11.0f} {1.0:>8.1f}x")
    print(f"{f'block (bs={BLOCK_SIZE})':<26} {block_s:>8.3f}s "
          f"{n / block_s:>11.0f} {speedup:>8.1f}x")

    assert speedup >= SPEEDUP_TARGET, (
        f"block path {speedup:.2f}x < {SPEEDUP_TARGET}x target")


def _cpu_run(feed, items) -> tuple[float, list]:
    """CPU seconds of one pass of *feed* over *items*, plus its events."""
    events: list = []
    t0 = time.process_time()
    for item in items:
        events.extend(feed(item))
    return time.process_time() - t0, events


def test_serve_batch_beats_scalar(bench_report):
    print_header(
        "Serve-batch cost — feed_block at 10-frame blocks vs scalar feed",
        "every served message drains through feed_block in ~10-frame "
        "batches; that must cost no more per frame than per-frame feed")

    frames = list(stream_frames(_idle_session()))
    batches = [frames[i:i + SERVE_BATCH]
               for i in range(0, len(frames), SERVE_BATCH)]
    n = len(frames)

    # a serving engine: live updates on, its own registry
    scalar_s = block_s = float("inf")
    for _ in range(SERVE_ROUNDS):
        # interleaved, so a busy stretch of the host hits both sides
        t, scalar_events = _cpu_run(
            AirFinger(metrics=MetricsRegistry()).feed, frames)
        scalar_s = min(scalar_s, t)
        t, block_events = _cpu_run(
            AirFinger(metrics=MetricsRegistry()).feed_block, batches)
        block_s = min(block_s, t)
    assert ([repr(e) for e in block_events]
            == [repr(e) for e in scalar_events])

    ratio = scalar_s / block_s
    scale = {"n_frames": n, "block_size": SERVE_BATCH}
    bench_report.record("block", "idle_stream_serve_batch",
                        "speedup_block10_vs_scalar", ratio, unit="x",
                        scale=scale)

    print(f"\nstream: {n} frames, {SERVE_BATCH}-frame blocks, "
          f"least CPU of {SERVE_ROUNDS} interleaved rounds")
    print(f"{'mode':<26} {'us/frame':>9}")
    print(f"{'scalar (per-frame feed)':<26} {scalar_s / n * 1e6:>9.2f}")
    print(f"{f'block (bs={SERVE_BATCH})':<26} {block_s / n * 1e6:>9.2f}")
    print(f"speedup_block10_vs_scalar  {ratio:.2f}x")

    assert ratio >= SERVE_RATIO_TARGET, (
        f"feed_block({SERVE_BATCH}) costs {1 / ratio:.2f}x the scalar "
        f"loop per frame (gate: <= {1 / SERVE_RATIO_TARGET:.2f}x)")
