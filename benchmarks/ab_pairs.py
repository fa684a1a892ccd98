"""Interleaved A/B pairs of the repo benchmark, base tree against head tree.

Usage (from the repository root)::

    python3 benchmarks/ab_pairs.py BASE [HEAD] [--pairs N] [--seconds S]
                                   [--workload W ...] [--seed N]

``BASE`` (and ``HEAD``, when given) is any git revision; its committed
files are exported into a temporary directory with ``git archive``, so
nothing in the repository changes and no network is needed.  Without
``HEAD`` the head side is this working tree.

For every workload the tool runs ``benchmarks/perf/run.py`` of each
tree in its own process, ``N`` pairs (default 10) at ``--seconds`` each
(default: ``BENCHMARK.json``'s ``run_seconds``).  Pair ``i`` runs both
sides on seed ``--seed + i`` and alternates which side goes first, so a
drift in the host's speed lands on both sides alike.  Only such pairs
mean anything on a shared host: the same code reads up to 2x apart from
one session to the next.

It prints every run, then for each workload and each end-to-end metric
of ``BENCHMARK.json``: the medians, the median ratio head/base, the
pairs head won, the base side's interquartile range and a verdict —
``worse`` when the median ratio is past the metric's bound, ``better``
when head won at least 90% of the pairs and its median beats base's by
more than base's IQR, ``same`` otherwise.  Exit status: 1 when a run
failed or checked any frame wrong, 2 when a verdict is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")


def parse_run(stdout: str) -> dict:
    """The JSON summary ``run.py`` prints last: ``failed`` frames and a
    ``{metric: value}`` map."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run.py printed nothing")
    summary = json.loads(lines[-1])
    return {"failed": int(summary["failed"]),
            "metrics": {name: float(entry["value"])
                        for name, entry in summary["metrics"].items()}}


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(pairs: list[dict], declared: list[dict]) -> list[dict]:
    """One row per declared metric over *pairs* (each ``{"base": run,
    "head": run}`` of :func:`parse_run` output)."""
    rows = []
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        ratios = [h / b if b else math.inf for b, h in zip(base, head)]
        wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        ratio = statistics.median(ratios)
        gain = statistics.median(head) - statistics.median(base)
        iqr = _iqr(base)
        if (ratio < 1.0 - metric["bound"]) if higher else (
                ratio > 1.0 + metric["bound"]):
            verdict = "worse"
        elif wins >= 0.9 * len(pairs) and (gain if higher else -gain) > iqr:
            verdict = "better"
        else:
            verdict = "same"
        rows.append({"metric": name, "unit": metric["unit"],
                     "base_median": statistics.median(base),
                     "head_median": statistics.median(head),
                     "ratio": ratio, "wins": wins, "pairs": len(pairs),
                     "base_iqr": iqr, "bound": metric["bound"],
                     "verdict": verdict})
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    out = [f"{workload}: {rows[0]['pairs'] if rows else 0} pairs",
           f"  {'metric':<18} {'base':>11} {'head':>11} {'head/base':>9} "
           f"{'won':>5} {'base IQR':>10} {'bound':>6}  verdict"]
    for r in rows:
        out.append(
            f"  {r['metric']:<18} {r['base_median']:>11.5g} "
            f"{r['head_median']:>11.5g} {r['ratio']:>9.4f} "
            f"{r['wins']:>2}/{r['pairs']:<2} {r['base_iqr']:>10.4g} "
            f"{r['bound']:>6.2f}  {r['verdict']}")
    return "\n".join(out)


def export(revision: str, into: Path) -> Path:
    """The committed files of *revision*, unpacked under *into*."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision],
                             cwd=ROOT, check=True, capture_output=True)
    tree = into / revision.replace("/", "_")
    tree.mkdir(parents=True)
    with tempfile.TemporaryFile() as blob:
        blob.write(archive.stdout)
        blob.seek(0)
        with tarfile.open(fileobj=blob) as tar:
            tar.extractall(tree, filter="data")
    return tree


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "perf" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True)
    try:
        run = parse_run(proc.stdout)
    except (ValueError, KeyError) as exc:
        sys.stderr.write(proc.stderr[-2000:])
        return {"failed": -1, "metrics": {}, "error": str(exc)}
    run["returncode"] = proc.returncode
    return run


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks/ab_pairs.py", description=__doc__.split("\n")[0])
    parser.add_argument("base", help="git revision of the base side")
    parser.add_argument("head", nargs="?", default=None,
                        help="git revision of the head side (default: "
                             "this working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=2020,
                        help="seed of the first pair; pair i uses seed+i")
    args = parser.parse_args(argv)

    status = 0
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as scratch:
        trees = {"base": export(args.base, Path(scratch)),
                 "head": (ROOT if args.head is None
                          else export(args.head, Path(scratch) / "head"))}
        print(f"base {args.base} -> {trees['base']}\n"
              f"head {args.head or 'working tree'} -> {trees['head']}",
              flush=True)
        summaries = []
        for workload in args.workload or workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {side: run_side(trees[side], workload, seed,
                                       args.seconds) for side in order}
                for side in order:
                    run = pair[side]
                    values = " ".join(f"{k}={v:.5g}" for k, v in
                                      sorted(run["metrics"].items()))
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{values} failed={run['failed']}", flush=True)
                    if run["failed"] != 0 or run.get("returncode"):
                        status = 1
                if all(pair[side]["metrics"] for side in SIDES):
                    pairs.append(pair)
            rows = summarize(pairs, spec["end_to_end"]) if pairs else []
            if any(r["verdict"] == "worse" for r in rows) and not status:
                status = 2
            summaries.append(format_rows(workload, rows))
            print(summaries[-1], flush=True)
        print("\n".join(["", "summary", *summaries]))
    return status


if __name__ == "__main__":
    sys.exit(main())
