"""Threshold-refresh cost: ``_refresh_from`` vs the parent's refresh.

Every 25 samples the segmenter re-derives its threshold from the
envelope history (up to 8 s = 800 samples): the 25% noise quantile and
Otsu's split of the log-space histogram.  ``_refresh_from`` reads both
from one sort of the window; the reference
(:mod:`tests.golden.segmentation_reference`) is the parent's code, a
partition for the quantile and a 129-edge binning of every sample.

Inputs are every window the five golden stream cases refresh on —
partial ones from each stream's first 8 s, then full ones — captured by
running them through the engine.  Both sides must give ``repr``-equal
thresholds; the gate then asserts that ``_refresh_from`` is at least
:data:`RATIO_TARGET` times cheaper, least CPU of :data:`ROUNDS`
interleaved rounds.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from conftest import print_header

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.core.config import AirFingerConfig  # noqa: E402
from repro.core.pipeline import AirFinger  # noqa: E402
from repro.core.segmentation import DynamicThresholdSegmenter  # noqa: E402
from tests.golden.segmentation_reference import (  # noqa: E402
    reference_refresh,
)
from tests.golden.stream_cases import build_stream_cases  # noqa: E402

ROUNDS = 5
RATIO_TARGET = 1.3


def _golden_windows() -> list:
    """Copies of every history window the golden streams refresh on."""
    windows = []
    refresh = DynamicThresholdSegmenter._refresh_from

    def recording(self, history):
        windows.append(history.copy())
        return refresh(self, history)

    DynamicThresholdSegmenter._refresh_from = recording
    try:
        for _, frames in build_stream_cases():
            engine = AirFinger()
            engine.feed_block(frames)
            engine.flush()
    finally:
        DynamicThresholdSegmenter._refresh_from = refresh
    return windows


def _cpu_run(refresh, windows) -> tuple[float, list[str]]:
    """CPU seconds of one pass of *refresh* over *windows*, plus the
    ``repr`` of each answer."""
    t0 = time.process_time()
    answers = [refresh(window) for window in windows]
    return time.process_time() - t0, [repr(a) for a in answers]


def test_refresh_beats_reference(bench_report):
    print_header(
        "Threshold refresh — one sort per window vs the parent's "
        "partition + per-sample binning",
        "every 25 samples the segmenter recomputes Otsu over up to 800 "
        "history samples; it must be >= 1.3x cheaper")

    config = AirFingerConfig()
    windows = _golden_windows()
    n = len(windows)
    full = sum(w.size == config.history_samples for w in windows)
    assert full and full < n, "need both partial and full windows"
    segmenter = DynamicThresholdSegmenter(config)

    fast_s = reference_s = float("inf")
    for _ in range(ROUNDS):
        # interleaved, so a busy stretch of the host hits both sides
        t, fast = _cpu_run(segmenter._refresh_from, windows)
        fast_s = min(fast_s, t)
        t, reference = _cpu_run(
            lambda w: reference_refresh(w, config), windows)
        reference_s = min(reference_s, t)
    assert fast == reference

    ratio = reference_s / fast_s
    scale = {"n_windows": n, "n_full_windows": full,
             "history_samples": config.history_samples}
    bench_report.record("segmentation", "golden_stream_windows",
                        "speedup_refresh_vs_reference", ratio, unit="x",
                        scale=scale)

    print(f"\n{n} golden refresh windows ({full} full at "
          f"{config.history_samples} samples), least CPU of {ROUNDS} "
          f"interleaved rounds")
    print(f"{'path':<30} {'us/refresh':>11}")
    print(f"{'parent refresh (reference)':<30} "
          f"{reference_s / n * 1e6:>11.1f}")
    print(f"{'_refresh_from':<30} {fast_s / n * 1e6:>11.1f}")
    print(f"speedup_refresh_vs_reference  {ratio:.2f}x")

    assert ratio >= RATIO_TARGET, (
        f"_refresh_from is only {ratio:.2f}x cheaper than the reference "
        f"(gate: >= {RATIO_TARGET:.1f}x)")
