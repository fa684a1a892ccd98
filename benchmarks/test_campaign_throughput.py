"""Campaign generation throughput: scalar vs batched vs parallel.

The perf trajectory of the repo is measured against this bench: it times a
scaled-down ``main_campaign`` plan three ways —

* **scalar**: one :meth:`SensorSampler.record` call per capture, i.e. the
  per-scene engine path (`photocurrents_ua`) the batched pipeline replaced;
* **batched**: the serial :meth:`CampaignGenerator.capture_tasks` path
  through :meth:`RadiometricEngine.photocurrents_batch_ua`;
* **parallel**: :class:`ParallelCampaignGenerator` at one worker per core,
  at most 4 (more workers than cores only queue behind each other).

All three produce bit-identical corpora (asserted here on a subset), and
the parallel path must clear the >= 3x end-to-end speedup target over the
scalar baseline.  Wall-clock and samples/sec for every mode land in the
benchmark JSON report via ``benchmark.extra_info``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.datasets import (
    CampaignConfig,
    CampaignGenerator,
    ParallelCampaignGenerator,
)
from repro.hand.finger import scene_for_trajectory
from repro.utils import derive_rng

from conftest import print_header

# Scaled-down main campaign: 3 users x 2 sessions x 8 gestures x 2 reps.
THROUGHPUT_CONFIG = CampaignConfig(
    n_users=3, n_sessions=2, repetitions=2, seed=2020)
WORKERS = min(4, os.cpu_count() or 1)
BATCH = 24
SPEEDUP_TARGET = 3.0


def _scalar_capture(generator: CampaignGenerator, tasks) -> list:
    """The pre-batching path: one scalar engine pass per capture."""
    recordings = []
    for task in tasks:
        trajectory = generator._synthesize_task(task)
        rng = derive_rng(generator.config.seed, "capture", task.user_id,
                         task.session_id, task.label, task.repetition,
                         task.condition)
        ambient = task.ambient or generator.ambient
        irradiance = ambient.irradiance(trajectory.times_s, rng)
        scene = scene_for_trajectory(
            trajectory, generator.users[task.user_id],
            ambient_mw_mm2=irradiance, rng=rng)
        recordings.append(generator.sampler.record(
            scene, rng=rng, label=task.label))
    return recordings


def test_campaign_throughput(benchmark, bench_report):
    print_header(
        "Campaign generation throughput — batched + parallel hot path",
        "bulk synthetic-trace generation is the dominant cost of every "
        "training sweep")

    serial = CampaignGenerator(config=THROUGHPUT_CONFIG, batch_size=BATCH)
    tasks = serial.plan_main_campaign()
    n = len(tasks)

    t0 = time.perf_counter()
    scalar_recordings = _scalar_capture(serial, tasks)
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched_samples = serial.capture_tasks(tasks)
    batched_s = time.perf_counter() - t0

    parallel = ParallelCampaignGenerator(
        config=THROUGHPUT_CONFIG, workers=WORKERS, batch_size=BATCH)

    def run_parallel():
        return parallel.run_tasks(tasks)

    corpus = benchmark.pedantic(run_parallel, rounds=2, iterations=1)
    parallel_s = min(benchmark.stats.stats.data)

    # equivalence: all three paths produce the same bits
    assert len(corpus) == len(batched_samples) == len(scalar_recordings) == n
    for rec, sample, psample in zip(scalar_recordings[::7],
                                    batched_samples[::7],
                                    corpus.samples[::7]):
        assert np.array_equal(rec.rss, sample.recording.rss)
        assert np.array_equal(sample.recording.rss, psample.recording.rss)

    speedup_batched = scalar_s / batched_s
    speedup_parallel = scalar_s / parallel_s
    benchmark.extra_info["n_samples"] = n
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["batch_size"] = BATCH
    benchmark.extra_info["scalar_wall_s"] = round(scalar_s, 4)
    benchmark.extra_info["batched_wall_s"] = round(batched_s, 4)
    benchmark.extra_info["parallel_wall_s"] = round(parallel_s, 4)
    benchmark.extra_info["scalar_samples_per_sec"] = round(n / scalar_s, 1)
    benchmark.extra_info["batched_samples_per_sec"] = round(n / batched_s, 1)
    benchmark.extra_info["parallel_samples_per_sec"] = round(n / parallel_s, 1)
    benchmark.extra_info["speedup_batched_vs_scalar"] = round(
        speedup_batched, 2)
    benchmark.extra_info["speedup_parallel_vs_scalar"] = round(
        speedup_parallel, 2)

    scale = {"n_samples": n, "workers": WORKERS, "batch_size": BATCH}
    bench_report.record("campaign", "main_campaign",
                        "batched_samples_per_sec", n / batched_s,
                        unit="samples/s", scale=scale)
    bench_report.record("campaign", "main_campaign",
                        "parallel_samples_per_sec", n / parallel_s,
                        unit="samples/s", scale=scale)
    bench_report.record("campaign", "main_campaign",
                        "speedup_parallel_vs_scalar", speedup_parallel,
                        unit="x", scale=scale)

    print(f"\nplan: {n} captures "
          f"({THROUGHPUT_CONFIG.n_users} users x "
          f"{THROUGHPUT_CONFIG.n_sessions} sessions x 8 gestures x "
          f"{THROUGHPUT_CONFIG.repetitions} reps)")
    print(f"{'mode':<24} {'wall':>8} {'samples/s':>11} {'speedup':>9}")
    print(f"{'scalar (per-scene)':<24} {scalar_s:>7.2f}s {n/scalar_s:>11.1f} "
          f"{1.0:>8.1f}x")
    print(f"{'batched serial':<24} {batched_s:>7.2f}s {n/batched_s:>11.1f} "
          f"{speedup_batched:>8.1f}x")
    print(f"{f'parallel ({WORKERS} workers)':<24} {parallel_s:>7.2f}s "
          f"{n/parallel_s:>11.1f} {speedup_parallel:>8.1f}x")

    assert speedup_parallel >= SPEEDUP_TARGET, (
        f"parallel path {speedup_parallel:.2f}x < {SPEEDUP_TARGET}x target")
