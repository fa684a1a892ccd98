"""Segment-classification cost: ``predict_one`` vs the per-spec reference.

Every detect-aimed segment the pipeline closes goes through
:meth:`DetectAimedRecognizer.predict_one`: the full Table-I feature
vector of its ΔRSS² signal, then the Random Forest.  ``predict_one``
cleans the signal once into a shared :class:`~repro.features.series.
Series` (so the spectrum, the autocorrelations, the entropies' tolerance
matrix, ... are computed once per signal) and descends all trees of the
forest together.  The reference computes the same answer the long way:
``spec.compute`` on the raw segment for every column, then the mean of
the trees' own ``predict_proba``, summed in tree order.

Both must agree bit for bit (``repr`` of the ``(label, confidence)``
pairs); the gate then asserts that ``predict_one`` is at least
:data:`RATIO_TARGET` times cheaper per segment, least CPU of
:data:`ROUNDS` interleaved rounds.  Inputs are the golden segment set and
the golden detector (:mod:`tests.golden.classify_cases`).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from conftest import print_header

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.golden.classify_cases import (  # noqa: E402
    load_traces,
    train_detector,
    unpack,
)

ROUNDS = 5
RATIO_TARGET = 2.0


def _per_spec(detector, signal) -> tuple[str, float]:
    """``predict_one``'s answer from per-column specs and per-tree calls."""
    X = np.array([[spec.compute(signal) for spec in detector.extractor.specs]])
    forest = detector.model_
    acc = np.zeros((1, len(forest.classes_)))
    for tree in forest.estimators_:
        acc += tree.predict_proba(X)
    proba = (acc / len(forest.estimators_))[0]
    k = int(np.argmax(proba))
    return str(forest.classes_[k]), float(proba[k])


def _cpu_run(classify, signals) -> tuple[float, list[str]]:
    """CPU seconds of one pass of *classify* over *signals*, plus the
    ``repr`` of each answer."""
    t0 = time.process_time()
    answers = [classify(signal) for signal in signals]
    return time.process_time() - t0, [repr(a) for a in answers]


def test_classify_beats_per_spec(bench_report):
    print_header(
        "Segment classification — predict_one vs per-spec features + "
        "per-tree forest",
        "every detect-aimed segment pays one feature extraction and one "
        "forest pass; sharing intermediates must make it >= 2x cheaper")

    detector = train_detector()
    signals = [unpack(s) for s in load_traces()["signals"].values()]
    n = len(signals)

    fast_s = reference_s = float("inf")
    for _ in range(ROUNDS):
        # interleaved, so a busy stretch of the host hits both sides
        t, fast = _cpu_run(detector.predict_one, signals)
        fast_s = min(fast_s, t)
        t, reference = _cpu_run(lambda s: _per_spec(detector, s), signals)
        reference_s = min(reference_s, t)
    assert fast == reference

    ratio = reference_s / fast_s
    scale = {"n_segments": n,
             "n_features": detector.extractor.n_features,
             "n_trees": len(detector.model_.estimators_)}
    bench_report.record("classify", "golden_segments",
                        "speedup_classify_vs_per_spec", ratio, unit="x",
                        scale=scale)

    lengths = [s.size for s in signals]
    print(f"\n{n} golden segments ({min(lengths)}-{max(lengths)} samples), "
          f"{scale['n_features']} features, {scale['n_trees']} trees, "
          f"least CPU of {ROUNDS} interleaved rounds")
    print(f"{'path':<34} {'us/segment':>11}")
    print(f"{'per-spec + per-tree reference':<34} "
          f"{reference_s / n * 1e6:>11.0f}")
    print(f"{'predict_one':<34} {fast_s / n * 1e6:>11.0f}")
    print(f"speedup_classify_vs_per_spec  {ratio:.2f}x")

    assert ratio >= RATIO_TARGET, (
        f"predict_one is only {ratio:.2f}x cheaper than the per-spec "
        f"reference (gate: >= {RATIO_TARGET:.1f}x)")
