"""Radiometric batch pass: the columnar batched engine vs the scalar path.

Every campaign — ``airfinger generate``/``train``, the figure
benchmarks, the parallel workers and the repo benchmark's set-up —
captures its scenes through :meth:`RadiometricEngine.photocurrents_batch_ua`,
which evaluates all link budgets of a batch on x/y/z columns, sharing
each optical leg's cosine between the element's lobe and the shield.
The per-scene :meth:`RadiometricEngine.photocurrents_ua` is the
reference it must reproduce bit for bit.

The input is the scene set of the repo benchmark detector's training
campaign (``benchmarks/perf/harness.train_detector``: 96 captures of 9
patches each), passed in the generator's batches.  The gate asserts
equal bits every round and a batched pass at least
:data:`RATIO_TARGET` times cheaper than the scalar one, least CPU of
:data:`ROUNDS` interleaved rounds.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
from conftest import print_header

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.utils import chunked  # noqa: E402
from tests.golden.cases import scene_for_task  # noqa: E402
from tests.golden.tree_reference import perf_training_plan  # noqa: E402

ROUNDS = 5
RATIO_TARGET = 20.0


def test_batched_pass_beats_scalar(bench_report):
    print_header(
        "Radiometric batch pass — columnar batched engine vs the scalar "
        "per-scene path",
        "the benchmark detector's training scenes must come out "
        "bit-identical and >= 20x cheaper")

    generator, tasks = perf_training_plan()
    scenes = [scene_for_task(generator, task) for task in tasks]
    engine = generator.sampler.engine
    batches = list(chunked(scenes, generator.batch_size))

    batch_s = scalar_s = float("inf")
    for _ in range(ROUNDS):
        # interleaved, so a busy stretch of the host hits both sides
        t0 = time.process_time()
        batched = [current for batch in batches
                   for current in engine.photocurrents_batch_ua(batch)]
        batch_s = min(batch_s, time.process_time() - t0)
        t0 = time.process_time()
        scalar = [engine.photocurrents_ua(scene) for scene in scenes]
        scalar_s = min(scalar_s, time.process_time() - t0)
        assert all(np.array_equal(a, b) for a, b in zip(batched, scalar))
    ratio = scalar_s / batch_s

    scale = {"scenes": len(scenes), "batch_size": generator.batch_size,
             "rows": sum(s.n_samples * len(s.patches) for s in scenes),
             "rounds": ROUNDS}
    bench_report.record("campaign", "perf_training_scenes",
                        "speedup_batch_vs_scalar", ratio, unit="x",
                        scale=scale)

    print(f"\n{len(scenes)} scenes, {scale['rows']} patch rows, batches of "
          f"{generator.batch_size}; least CPU of {ROUNDS} interleaved "
          f"rounds")
    print(f"scalar {scalar_s * 1e3:.1f} ms  batched {batch_s * 1e3:.1f} ms  "
          f"speedup_batch_vs_scalar {ratio:.2f}x")

    assert ratio >= RATIO_TARGET, (
        f"the batched pass is only {ratio:.2f}x cheaper than the scalar "
        f"path (gate: >= {RATIO_TARGET:.0f}x)")
