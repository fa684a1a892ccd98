"""The aggregation of ``benchmarks/ab_pairs.py``, on canned ``run.py``
output."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))
import ab_pairs  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _stdout(frames_per_cpu_s: float, latency_ms: float, setup_s: float = 0.3,
            rss_mb: float = 100.0, failed: int = 0) -> str:
    """What run.py prints for one workload: a report, then one JSON line."""
    metrics = {"setup_s": (setup_s, "s"),
               "frames_per_cpu_s": (frames_per_cpu_s, "frames/s"),
               "latency_mean_ms": (latency_ms, "ms"),
               "rss_mb": (rss_mb, "MiB")}
    summary = {"correct": failed == 0, "attempted": 3200, "failed": failed,
               "metrics": {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}}
    return ("== fleet_idle (seed 2020) ==\n"
            f"  frames_per_cpu_s  {frames_per_cpu_s:.6g} frames/s\n"
            f"  [frames] {failed} failed of 3200\n"
            + json.dumps(summary) + "\n")


def _pairs(base_head: list[tuple[float, float]], **head) -> list[dict]:
    return [{"base": ab_pairs.parse_run(_stdout(b, 0.1)),
             "head": ab_pairs.parse_run(_stdout(h, 0.1, **head))}
            for b, h in base_head]


def _row(rows: list[dict], metric: str) -> dict:
    (row,) = [r for r in rows if r["metric"] == metric]
    return row


def test_parse_run_reads_the_last_line():
    run = ab_pairs.parse_run(_stdout(99_500.0, 0.098, failed=2) + "\n")
    assert run["failed"] == 2
    assert run["metrics"]["frames_per_cpu_s"] == 99_500.0
    assert set(run["metrics"]) == {m["name"] for m in DECLARED}
    with pytest.raises(ValueError):
        ab_pairs.parse_run("")


def test_gain_on_nine_of_ten_pairs_beyond_the_base_iqr():
    base_head = [(100.0 + k, 112.0 + k) for k in range(9)] + [(120.0, 119.0)]
    row = _row(ab_pairs.summarize(_pairs(base_head), DECLARED),
               "frames_per_cpu_s")
    assert row["wins"] == 9 and row["pairs"] == 10
    ratios = sorted(h / b for b, h in base_head)
    assert row["ratio"] == pytest.approx((ratios[4] + ratios[5]) / 2)
    assert row["base_median"] == pytest.approx(104.5)
    # exclusive quartiles of 100..108, 120: 101.75 and 107.25
    assert row["base_iqr"] == pytest.approx(5.5)
    assert row["verdict"] == "better"


def test_a_gain_inside_the_base_iqr_is_the_same():
    # head wins every pair, by less than the base runs spread
    base_head = [(100.0 + 10 * k, 101.0 + 10 * k) for k in range(10)]
    row = _row(ab_pairs.summarize(_pairs(base_head), DECLARED),
               "frames_per_cpu_s")
    assert row["wins"] == 10
    assert row["verdict"] == "same"


def test_past_the_bound_is_worse_either_direction():
    slower = [(100.0, 70.0)] * 4
    rows = ab_pairs.summarize(_pairs(slower), DECLARED)
    assert _row(rows, "frames_per_cpu_s")["verdict"] == "worse"
    assert _row(rows, "frames_per_cpu_s")["ratio"] == pytest.approx(0.7)
    # rss_mb is lower-is-better with a 10% bound
    fatter = _pairs([(100.0, 100.0)] * 4, rss_mb=112.0)
    row = _row(ab_pairs.summarize(fatter, DECLARED), "rss_mb")
    assert row["ratio"] == pytest.approx(1.12)
    assert row["wins"] == 0 and row["verdict"] == "worse"
    text = ab_pairs.format_rows("fleet_idle", rows)
    assert "frames_per_cpu_s" in text and "worse" in text
