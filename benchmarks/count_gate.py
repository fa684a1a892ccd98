"""Exact-count gate of the repo benchmark: seven traced counts per workload.

Usage (from the repository root)::

    python3 benchmarks/count_gate.py [--update]

For each workload of ``BENCHMARK.json`` the gate runs
``benchmarks/perf/run.py --workload W --trace --seed 31 --seconds 1`` in
its own process (``ab_pairs.run_side``) and reads seven
per-layer counts from its JSON summary: segments per kframe, dispatcher
and ZEBRA calls per segment, faults and ``feed_block`` calls per kframe,
metric records per frame and frames per dispatch.  They count work, not
time, so they repeat exactly from run to run however fast the host is,
and a changed count is a behaviour change.

Each count is compared for exact equality with its record in
``benchmarks/baselines/BENCH_counts.json`` (tolerance 0).  A move in
either direction fails: ``airfinger bench compare`` is direction-aware
and would pass a drop in calls per segment as an improvement.  Exit
status: 0 when every count matches, 1 when one moved, has no baseline
or a run failed.  ``--update`` rewrites the baseline from this tree's
counts instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import ab_pairs

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "benchmarks" / "baselines" / "BENCH_counts.json"
SEED = 31
SECONDS = 1.0
COUNTS = (
    "segmentation.segments_per_kframe",
    "dispatcher.calls_per_segment",
    "zebra.calls_per_segment",
    "pipeline.faults_per_kframe",
    "pipeline.feed_block_calls_per_kframe",
    "obs.record_calls_per_frame",
    "session.frames_per_dispatch",
)


def traced_counts(workload: str) -> dict[str, float]:
    """The seven counts of one traced run of *workload* in this tree."""
    run = ab_pairs.run_side(ROOT, workload, SEED, SECONDS, trace=True)
    if run["failed"] != 0 or run.get("returncode"):
        why = run.get("error") or (f"exit {run['returncode']}, "
                                   f"{run['failed']} failed frames")
        raise RuntimeError(f"{workload}: traced run.py failed: {why}")
    return {name: run["metrics"][name] for name in COUNTS}


def compare(counts: dict[str, dict[str, float]],
            baseline: dict[tuple[str, str], float]) -> list[dict]:
    """One row per (workload, count): baseline, current and whether they
    are exactly equal (a missing baseline never is)."""
    return [{"workload": workload, "count": name,
             "baseline": baseline.get((workload, name)), "current": value,
             "same": baseline.get((workload, name)) == value}
            for workload, per in counts.items()
            for name, value in per.items()]


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.ledger import BenchLedger, BenchRecord

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks/count_gate.py", description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {BASELINE.relative_to(ROOT)} from "
                             "this tree's counts")
    args = parser.parse_args(argv)

    try:
        counts = {w: traced_counts(w) for w in workloads}
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.update:
        declared = {m["name"]: m for m in spec["per_layer"]}
        BASELINE.unlink(missing_ok=True)
        BenchLedger(BASELINE).append([
            BenchRecord.create(
                "counts", workload, name, value,
                unit=declared[name]["unit"],
                direction=f"{declared[name]['better']}_is_better",
                tolerance=0.0, scale={"seed": SEED, "seconds": SECONDS})
            for workload, per in counts.items()
            for name, value in per.items()])
        print(f"wrote {sum(map(len, counts.values()))} counts -> "
              f"{BASELINE.relative_to(ROOT)}")
        return 0

    baseline = {(r.benchmark, r.metric): r.value
                for r in BenchLedger(BASELINE).load()}
    rows = compare(counts, baseline)
    print(f"{'workload':<12} {'count':<38} {'baseline':>12} "
          f"{'current':>12}")
    for r in rows:
        base = "-" if r["baseline"] is None else f"{r['baseline']:.6g}"
        print(f"{r['workload']:<12} {r['count']:<38} {base:>12} "
              f"{r['current']:>12.6g}  {'ok' if r['same'] else 'CHANGED'}")
    moved = [r for r in rows if not r["same"]]
    print(f"{len(rows) - len(moved)} of {len(rows)} counts unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
