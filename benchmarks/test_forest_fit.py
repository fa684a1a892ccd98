"""Forest fit cost: the one-pass split search vs the parent's per-feature loop.

The detect-aimed recognizer's forest (60 trees, ``random_state=7``) is
refit by ``airfinger train``, by every evaluation fold, by the feature
selector and by every set-up of the repo benchmark.  Its split search
scores all of a node's candidate features in one numpy pass; the
reference (:mod:`tests.golden.tree_reference`) is the parent's code,
which looped over the features in Python.

The input is the matrix the repo benchmark's detector trains on
(``benchmarks/perf/harness.train_detector``: 72 segments x 80 Table-I
features, 6 gestures).  Both sides must grow identical trees; the gate
then asserts that the fit is at least :data:`RATIO_TARGET` times
cheaper, least CPU of :data:`ROUNDS` interleaved rounds.  The same
matrix replicated to 720 rows is timed too and reported as information.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
from conftest import print_header

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.ml.forest import RandomForestClassifier  # noqa: E402
from tests.golden.tree_reference import (  # noqa: E402
    perf_training_set,
    reference_trees,
    tree_bytes,
)

ROUNDS = 5
RATIO_TARGET = 2.5
#: row replication of the information-only larger fit
REPLICAS = 10


def _fit(X, y) -> RandomForestClassifier:
    return RandomForestClassifier(n_estimators=60, random_state=7).fit(X, y)


def _reference_fit(X, y) -> RandomForestClassifier:
    with reference_trees():
        return _fit(X, y)


def _cpu_fit(fit, X, y) -> tuple[float, RandomForestClassifier]:
    t0 = time.process_time()
    forest = fit(X, y)
    return time.process_time() - t0, forest


def _least_cpu(X, y) -> tuple[float, float]:
    """Least CPU seconds of the fit and of the reference fit, over
    interleaved rounds; both must grow the same trees."""
    fast_s = reference_s = float("inf")
    for _ in range(ROUNDS):
        # interleaved, so a busy stretch of the host hits both sides
        t, fast = _cpu_fit(_fit, X, y)
        fast_s = min(fast_s, t)
        t, reference = _cpu_fit(_reference_fit, X, y)
        reference_s = min(reference_s, t)
        assert ([tree_bytes(e) for e in fast.estimators_]
                == [tree_bytes(e) for e in reference.estimators_])
        assert (fast.feature_importances_.tobytes()
                == reference.feature_importances_.tobytes())
    return fast_s, reference_s


def test_forest_fit_beats_reference(bench_report):
    print_header(
        "Forest fit — one numpy pass per tree node vs the parent's "
        "per-feature loop",
        "the benchmark detector's 60-tree fit must grow identical trees "
        "and be >= 2.5x cheaper")

    X, y = perf_training_set()
    fast_s, reference_s = _least_cpu(X, y)
    ratio = reference_s / fast_s
    Xr, yr = np.tile(X, (REPLICAS, 1)), np.tile(y, REPLICAS)
    fast_r, reference_r = _least_cpu(Xr, yr)
    ratio_r = reference_r / fast_r

    scale = {"rows": len(X), "features": X.shape[1],
             "classes": len(np.unique(y)), "n_estimators": 60,
             "rounds": ROUNDS}
    bench_report.record("forest", "perf_training_matrix",
                        "speedup_fit_vs_reference", ratio, unit="x",
                        scale=scale)

    print(f"\n60-tree forest, least CPU of {ROUNDS} interleaved rounds")
    print(f"{'rows':>6} {'reference ms':>13} {'fit ms':>8} {'speedup':>8}")
    for rows, ref_s, fit_s in ((len(X), reference_s, fast_s),
                               (len(Xr), reference_r, fast_r)):
        print(f"{rows:>6} {ref_s * 1e3:>13.1f} {fit_s * 1e3:>8.1f} "
              f"{ref_s / fit_s:>7.2f}x")
    print(f"speedup_fit_vs_reference  {ratio:.2f}x "
          f"({len(Xr)} rows, information: {ratio_r:.2f}x)")

    assert ratio >= RATIO_TARGET, (
        f"the forest fit is only {ratio:.2f}x cheaper than the reference "
        f"(gate: >= {RATIO_TARGET:.1f}x)")
