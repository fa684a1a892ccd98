"""Tests of the perf benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import fleet  # noqa: E402
import harness as h  # noqa: E402
import layers  # noqa: E402
import offline  # noqa: E402
import run  # noqa: E402
from repro.acquisition.stream import RssFrame  # noqa: E402
from repro.core.events import GestureEvent, SegmentEvent  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _frame(index: int) -> RssFrame:
    return RssFrame(index=index, time_s=index / 100.0,
                    values=(float(index), 0.0, 0.0))


# ----------------------------------------------------------------------
# the virtual clock
# ----------------------------------------------------------------------
def _burn(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_virtual_clock_advances_with_cpu_time():
    clock = h.CpuVirtualClock()
    clock.reset(10.0)
    start = clock()
    _burn(0.02)
    assert clock() - start >= 0.02
    assert 10.0 <= start < 10.01


def test_virtual_clock_freeze_and_thaw():
    clock = h.CpuVirtualClock()
    clock.reset(0.0)
    clock.freeze(5.0)
    _burn(0.01)
    assert clock() == 5.0
    clock.thaw()
    # thawing resumes the CPU-driven reading, not the frozen instant
    assert 0.01 <= clock() < 1.0


def test_virtual_clock_advance_skips_forward_only():
    clock = h.CpuVirtualClock()
    clock.reset(0.0)
    clock.advance_to(3.0)
    assert 3.0 <= clock() < 3.01
    clock.advance_to(1.0)
    assert clock() >= 3.0


# ----------------------------------------------------------------------
# rotation and messages
# ----------------------------------------------------------------------
def test_rotation_reindexes_contiguously():
    capture = [_frame(i) for i in range(10)]
    rotated = h.rotate(capture, 3, 10)
    assert [f.index for f in rotated] == list(range(10))
    assert [f.values[0] for f in rotated] == [3, 4, 5, 6, 7, 8, 9, 0, 1, 2]
    assert [f.time_s for f in rotated] == [i / 100.0 for i in range(10)]


def test_rotation_preserves_the_gaps_of_a_faulted_capture():
    dropped = {2, 5, 6}
    capture = [_frame(i) for i in range(10) if i not in dropped]
    rotated = h.rotate(capture, 4, 10)
    # original position p lands at (p - 4) mod 10
    assert {f.index for f in rotated} == {
        (p - 4) % 10 for p in range(10) if p not in dropped}
    assert [f.index for f in rotated] == [0, 3, 4, 5, 6, 7, 9]


def test_rotation_window_keeps_the_first_positions():
    capture = [_frame(i) for i in range(10)]
    window = h.rotate(capture, 8, 10, limit=4)
    assert [f.values[0] for f in window] == [8, 9, 0, 1]


def test_messages_cover_ten_positions_and_skip_empty_slots():
    frames = [_frame(i) for i in range(35) if not 10 <= i < 20]
    slots = h.split_messages(frames)
    assert [k for k, _batch in slots] == [0, 2, 3]
    assert [len(batch) for _k, batch in slots] == [10, 10, 5]


# ----------------------------------------------------------------------
# aggregation and attribution
# ----------------------------------------------------------------------
def test_unit_min_charges_each_unit_its_least_disturbed_cost():
    reps = [{"a": 3.0, "b": 1.0}, {"a": 2.0, "b": 5.0}, {"a": 4.0, "b": 2.0}]
    assert h.unit_min(reps) == {"a": 2.0, "b": 1.0}
    with pytest.raises(RuntimeError):
        h.unit_min([{"a": 1.0}, {"b": 1.0}])


def test_repeat_honours_the_minimum_and_alternates_when_traced():
    seen = []
    reps = h.repeat(0.0, lambda i, traced: seen.append(traced) or i,
                    traced=True)
    assert len(reps) == 2 * h.MIN_REPETITIONS
    assert seen == [False, True] * h.MIN_REPETITIONS


def test_event_counts_segments_and_results():
    seg = SegmentEvent(start_index=0, end_index=40, start_time_s=0.0,
                       end_time_s=0.4)
    events = [seg, GestureEvent("click", 0.9, seg, True), seg, seg,
              GestureEvent("non_gesture", 1.0, seg, False)]
    assert layers.event_counts(events) == (3, 1)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_layer_trace_self_time_excludes_wrapped_children():
    from repro.obs import MetricsRegistry
    registry = MetricsRegistry()
    counter = registry.counter("x")
    with layers.LayerTrace() as trace:
        for _ in range(50):
            counter.inc()
    calls, inclusive, self_s = trace.totals["obs.record"]
    assert calls == 50 and inclusive >= self_s >= 0.0
    # uninstalled: the class method is the original again
    from repro.obs.metrics import Counter
    assert not hasattr(Counter.inc, "__wrapped__")


def test_layer_metrics_cover_every_declared_per_layer_metric():
    trace = layers.LayerTrace().snapshot()
    metrics = layers.layer_metrics(trace, frames=100, traced_cpu_s=0.01,
                                   overhead_share=0.05)
    declared = run.check_declared(metrics, SPEC["per_layer"])
    assert list(declared) == [m["name"] for m in SPEC["per_layer"]]


def test_declarations_are_consistent():
    spec = json.loads((HERE / "spec.json").read_text())
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    assert set(spec["end_to_end"]) == set(e2e)
    assert set(spec["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(spec["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert set(run.WORKLOADS) == set(spec["workloads"])
    assert not set(run.ABSOLUTE_GATES) & set(e2e)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_undeclared_or_missing_metrics_are_refused():
    declared = SPEC["end_to_end"]
    metrics = {m["name"]: 1.0 for m in declared}
    assert run.check_declared(metrics, declared)["setup_s"]["unit"] == "s"
    with pytest.raises(RuntimeError):
        run.check_declared({**metrics, "bogus": 1.0}, declared)
    metrics.pop("setup_s")
    with pytest.raises(RuntimeError):
        run.check_declared(metrics, declared)


# ----------------------------------------------------------------------
# tiny-scale smoke test of all three workloads
# ----------------------------------------------------------------------
@pytest.fixture
def tiny(monkeypatch):
    """4 sessions, one repetition, 1 s; fewer recordings."""
    monkeypatch.setattr(h, "SETUP_REPEATS", 1)
    monkeypatch.setattr(h, "MIN_REPETITIONS", 1)
    monkeypatch.setattr(fleet, "IDLE", fleet.FleetShape(2, 2, dense=False))
    monkeypatch.setattr(fleet, "DENSE", fleet.FleetShape(
        2, 2, dense=True, fault_intensity=0.3))
    monkeypatch.setattr(offline, "RECORDINGS", 2)


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("traced", [0, 1])
def test_smoke_all_workloads(tiny, capsys, traced):
    start = time.monotonic()
    code = run.main(["--seconds", "1", "--trace", str(traced)])
    result = _last_json(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    for workload in run.WORKLOADS:
        for m in declared:
            entry = result["metrics"][f"{workload}.{m['name']}"]
            assert entry["unit"] == m["unit"]
    if not traced:
        for workload in run.WORKLOADS:
            for m in declared:
                assert result["metrics"][f"{workload}.{m['name']}"][
                    "value"] > 0, (workload, m["name"])
    assert time.monotonic() - start < 60


def test_ledger_records_carry_the_bounds(tiny, capsys, tmp_path):
    from repro.obs.ledger import load_ledgers
    assert run.main(["--workload", "offline", "--seconds", "1",
                     "--out", str(tmp_path)]) == 0
    records = {r.metric: r for r in load_ledgers(tmp_path)}
    for m in SPEC["end_to_end"]:
        assert records[m["name"]].tolerance == m["bound"]
        assert records[m["name"]].unit == m["unit"]
    assert records["error_rate"].tolerance == 0.0
