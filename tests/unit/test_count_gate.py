"""The comparison of ``benchmarks/count_gate.py``, on canned counts."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))
import count_gate  # noqa: E402

from repro.obs.ledger import BenchLedger  # noqa: E402


def _counts(**moved) -> dict[str, dict[str, float]]:
    per = {name: 1.0 + i / 3 for i, name in enumerate(count_gate.COUNTS)}
    return {"fleet_idle": {**per, **moved}}


def _baseline() -> dict[tuple[str, str], float]:
    return {("fleet_idle", k): v for k, v in _counts()["fleet_idle"].items()}


def test_equal_counts_pass():
    rows = count_gate.compare(_counts(), _baseline())
    assert len(rows) == len(count_gate.COUNTS)
    assert all(r["same"] for r in rows)


def test_a_move_in_either_direction_fails():
    for value in (0.5, 2.0):
        rows = count_gate.compare(
            _counts(**{"dispatcher.calls_per_segment": value}), _baseline())
        moved = [r["count"] for r in rows if not r["same"]]
        assert moved == ["dispatcher.calls_per_segment"]


def test_a_count_without_baseline_fails():
    rows = count_gate.compare(_counts(), {})
    assert not any(r["same"] for r in rows)
    assert {r["baseline"] for r in rows} == {None}


def test_committed_baseline_has_every_count_exactly():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = BenchLedger(count_gate.BASELINE).load()
    keys = {(r.benchmark, r.metric) for r in records}
    assert keys == {(w["name"], c) for w in spec["workloads"]
                    for c in count_gate.COUNTS}
    assert len(records) == len(keys)
    assert all(r.tolerance == 0.0 for r in records)


def test_traced_counts_reads_one_traced_run(monkeypatch):
    calls = []

    def run_side(tree, workload, seed, seconds, trace=False):
        calls.append((tree, workload, seed, seconds, trace))
        metrics = {**dict.fromkeys(count_gate.COUNTS, 2.0), "setup_s": 0.3}
        return {"failed": failed, "metrics": metrics, "returncode": failed}

    monkeypatch.setattr(count_gate.ab_pairs, "run_side", run_side)
    failed = 0
    assert count_gate.traced_counts("offline") == dict.fromkeys(
        count_gate.COUNTS, 2.0)
    assert calls == [(count_gate.ROOT, "offline", 31, 1.0, True)]
    failed = 3
    with pytest.raises(RuntimeError, match="3 failed frames"):
        count_gate.traced_counts("offline")
