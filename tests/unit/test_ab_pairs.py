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
    # head wins every pair, by less than the base runs spread, which
    # stays inside frames_per_cpu_s's 25% bound (100..118)
    base_head = [(100.0 + 2 * k, 100.5 + 2 * k) for k in range(10)]
    row = _row(ab_pairs.summarize(_pairs(base_head), DECLARED),
               "frames_per_cpu_s")
    assert row["wins"] == 10
    assert row["verdict"] == "same"
    # spread past the bound (100..190), the same kind of gain is unresolved
    base_head = [(100.0 + 10 * k, 101.0 + 10 * k) for k in range(10)]
    row = _row(ab_pairs.summarize(_pairs(base_head), DECLARED),
               "frames_per_cpu_s")
    assert row["wins"] == 10
    assert row["verdict"] == "unresolved"


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


#: ``offline`` rss_mb (MiB) of 20 interleaved 25-s pairs, seeds 7500-7519,
#: base abb2f6e against head 8e9e202 (the ledger's first 20-pair record)
OFFLINE_RSS_BASE = (75.391, 80.855, 75.59, 75.387, 75.625, 86.535, 85.453,
                    81.957, 83.312, 85.805, 75.582, 75.574, 75.527, 79.113,
                    77.199, 82.211, 75.5, 75.488, 80.414, 83.508)
OFFLINE_RSS_HEAD = (76.801, 77.242, 87.227, 87.434, 75.578, 82.285, 92.875,
                    84.359, 89.422, 93.426, 77.18, 77.113, 75.367, 75.387,
                    90.633, 87.652, 89.746, 77.887, 75.723, 75.941)


def test_runs_spread_past_the_bound_are_unresolved():
    pairs = [{"base": ab_pairs.parse_run(_stdout(1e5, 0.5, rss_mb=b)),
              "head": ab_pairs.parse_run(_stdout(1e5, 0.5, rss_mb=h))}
             for b, h in zip(OFFLINE_RSS_BASE, OFFLINE_RSS_HEAD)]
    row = _row(ab_pairs.summarize(pairs, DECLARED), "rss_mb")
    # base spans 75.4-86.5 MiB: 11.1 MiB against 10% of its 80.6 median;
    # the median ratio alone (x1.025) would read as "same"
    assert row["ratio"] < 1.1 and row["wins"] == 7
    assert row["verdict"] == "unresolved"


def test_a_wide_spread_separated_pair_set_is_judged():
    # both sides spread 30% against rss_mb's 10% bound, but every head
    # run is below every base run
    base_head = [(100.0 + 3 * k, 60.0 + 2 * k) for k in range(10)]
    pairs = [{"base": ab_pairs.parse_run(_stdout(1e5, 0.5, rss_mb=b)),
              "head": ab_pairs.parse_run(_stdout(1e5, 0.5, rss_mb=h))}
             for b, h in base_head]
    row = _row(ab_pairs.summarize(pairs, DECLARED), "rss_mb")
    assert row["verdict"] == "better"


def test_ledger_records_one_ratio_per_metric(tmp_path):
    from repro.obs.ledger import BenchLedger, ledger_path

    base_head = [(100.0 + k, 112.0 + k) for k in range(9)] + [(120.0, 119.0)]
    rows = ab_pairs.summarize(_pairs(base_head, setup_s=0.2), DECLARED)
    records = ab_pairs.ledger_records(
        "fleet_idle", rows, base_sha="b" * 40, head_sha="h" * 40,
        seconds=25.0, seed=7300)
    assert [r.metric for r in records] == [m["name"] for m in DECLARED]
    by_metric = {r.metric: r for r in records}
    for metric in DECLARED:
        record, row = by_metric[metric["name"]], _row(rows, metric["name"])
        assert record.key == ("ab", "fleet_idle", metric["name"])
        assert record.value == row["ratio"] and record.unit == "x"
        assert record.direction == f"{metric['better']}_is_better"
        assert record.tolerance == metric["bound"]
        assert record.git_sha == "h" * 40
        assert record.scale == {
            "base_sha": "b" * 40, "pairs": 10, "seconds": 25.0,
            "first_seed": 7300, "wins": row["wins"],
            "base_iqr": row["base_iqr"], "base_median": row["base_median"],
            "head_median": row["head_median"], "verdict": row["verdict"]}
    assert by_metric["frames_per_cpu_s"].scale["verdict"] == "better"
    assert by_metric["setup_s"].value == pytest.approx(0.2 / 0.3)
    assert by_metric["setup_s"].scale["wins"] == 10

    # what --out appends, read back as the ledger comparison reads it
    path = ledger_path(tmp_path, "ab")
    BenchLedger(path).append(records)
    BenchLedger(path).append(records[:1])
    loaded = BenchLedger(path).load()
    assert [r.to_dict() for r in loaded] == [
        r.to_dict() for r in records + records[:1]]


def test_out_needs_an_explicit_head(tmp_path, capsys):
    # the working tree is no commit: its records could not name what ran
    with pytest.raises(SystemExit) as exc:
        ab_pairs.main(["HEAD", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "explicit HEAD" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_a_workload_with_failed_runs_is_not_ledgered(tmp_path, monkeypatch):
    from repro.obs.ledger import BenchLedger, ledger_path

    def run_side(tree, workload, seed, seconds, trace=False):
        wrong = workload == "fleet_dense" and tree.name == "head" and seed == 1
        run = ab_pairs.parse_run(_stdout(100.0, 0.1, failed=int(wrong)))
        return {**run, "returncode": int(wrong)}

    monkeypatch.setattr(ab_pairs, "export", lambda rev, into: into / rev)
    monkeypatch.setattr(ab_pairs, "rev_parse", lambda rev: f"{rev}-sha")
    monkeypatch.setattr(ab_pairs, "run_side", run_side)
    status = ab_pairs.main(["base", "head", "--pairs", "2", "--seed", "0",
                            "--workload", "fleet_idle",
                            "--workload", "fleet_dense",
                            "--out", str(tmp_path)])
    assert status == 1
    records = BenchLedger(ledger_path(tmp_path, "ab")).load()
    assert [r.key for r in records] == [
        ("ab", "fleet_idle", m["name"]) for m in DECLARED]
    assert {r.git_sha for r in records} == {"head-sha"}
    assert {r.scale["base_sha"] for r in records} == {"base-sha"}
