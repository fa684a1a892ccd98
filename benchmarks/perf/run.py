"""The repo benchmark: three serve/offline workloads, one command.

Usage (from the repository root)::

    python benchmarks/perf/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out DIR]

Without ``--workload`` all three workloads run.  Every end-to-end metric
of ``BENCHMARK.json`` is printed by name with its unit; ``--trace``
prints the per-layer metrics instead, from repetitions run with timing
wrappers around the program's public functions.  Outputs are checked
against in-process references outside the timed windows: any mismatch
counts as a failed frame and makes the command exit non-zero.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--out DIR`` appends the end-to-end metrics to ``DIR/BENCH_perf.json``
as ledger records whose tolerance is the metric's bound, ready for
``airfinger bench compare --baseline benchmarks/perf/baselines``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # never measure some installed copy instead of this checkout
    sys.exit(f"no src/repro under {ROOT}: run from a repository checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import fleet  # noqa: E402
import harness  # noqa: E402
import offline  # noqa: E402

DEFAULT_SEED = 2020
WORKLOADS = ("fleet_idle", "fleet_dense", "offline")
#: end-to-end outcomes gated by the ledger with absolute tolerances;
#: they are 0 on a healthy run, so they cannot be relative-bound metrics
ABSOLUTE_GATES = {"error_rate": 0.0, "slo_miss_rate": 0.002}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    if name == "fleet_idle":
        return fleet.run(fleet.IDLE, seed, seconds, traced)
    if name == "fleet_dense":
        return fleet.run(fleet.DENSE, seed, seconds, traced)
    if name == "offline":
        return offline.run(seed, seconds, traced)
    raise ValueError(f"unknown workload {name!r}")


def check_declared(metrics: dict, declared: list[dict]) -> dict:
    """*metrics* with the declared units; exactly the declared names."""
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": float(metrics[m["name"]]),
                        "unit": m["unit"]} for m in declared}


def report(name: str, result, metrics: dict, seed: int) -> None:
    print(f"== {name} (seed {seed}) ==")
    width = max(len(k) for k in metrics)
    for key, entry in metrics.items():
        print(f"  {key:<{width}}  {entry['value']:.6g} {entry['unit']}")
    for key, value in result.notes.items():
        print(f"  [{key}] {value:.6g}")
    print(f"  [frames] {result.failed} failed of {result.attempted}")
    if not result.closure_ok:
        print("  CLOSURE FAILED: unattributed CPU exceeds 10% of the "
              "traced CPU per frame")


def write_ledger(out: Path, results: dict, spec: dict, seed: int,
                 seconds: float) -> Path:
    from repro.obs.ledger import BenchLedger, BenchRecord, ledger_path

    direction = {"higher": "higher_is_better", "lower": "lower_is_better"}
    records = []
    for name, (result, metrics) in results.items():
        scale = {"seed": seed, "seconds": seconds,
                 "repetitions": result.notes["repetitions"]}
        for m in spec["end_to_end"]:
            records.append(BenchRecord.create(
                "perf", name, m["name"], metrics[m["name"]]["value"],
                unit=m["unit"], direction=direction[m["better"]],
                tolerance=m["bound"], scale=scale))
        for key, tolerance in ABSOLUTE_GATES.items():
            if key in result.notes:
                records.append(BenchRecord.create(
                    "perf", name, key, result.notes[key], unit="share",
                    direction="lower_is_better", tolerance=tolerance,
                    scale=scale))
    path = ledger_path(out, "perf")
    BenchLedger(path).append(records)
    return path


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="wall seconds of timed repetitions per "
                             "workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report the per-layer metrics of a traced run")
    parser.add_argument("--out", type=Path, default=None,
                        help="append end-to-end ledger records to "
                             "DIR/BENCH_perf.json")
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    names = [args.workload] if args.workload else list(WORKLOADS)

    results = {}
    for name in names:
        # rss_mb is the peak while this workload ran
        harness.reset_peak_rss()
        result = run_workload(name, args.seed, args.seconds, traced)
        metrics = check_declared(result.metrics, declared)
        report(name, result, metrics, args.seed)
        results[name] = (result, metrics)

    if args.out is not None and not traced:
        path = write_ledger(args.out, results, spec, args.seed, args.seconds)
        print(f"ledger -> {path}")
    attempted = sum(r.attempted for r, _m in results.values())
    failed = sum(r.failed for r, _m in results.values())
    closure = all(r.closure_ok for r, _m in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))[1]
    else:
        metrics = {f"{name}.{key}": entry
                   for name, (_r, per) in results.items()
                   for key, entry in per.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and closure else 1


if __name__ == "__main__":
    sys.exit(main())
