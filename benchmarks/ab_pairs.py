"""Interleaved A/B pairs of the repo benchmark, base tree against head tree.

Usage (from the repository root)::

    python3 benchmarks/ab_pairs.py BASE [HEAD] [--pairs N] [--seconds S]
                                   [--workload W ...] [--seed N] [--out DIR]

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
``worse`` when the median ratio is past the metric's bound;
``unresolved`` when either side's runs spread (max - min) wider than
the bound times that side's median, so the pairs cannot tell a move
from noise, unless every head run beats every base run; ``better`` when
head won at least 90% of the pairs and its median beats base's by more
than base's IQR; ``same`` otherwise.  Exit status: 1 when a run failed
or checked any frame wrong, 2 when a verdict is ``worse``, else 0.

With ``--out DIR`` each verdict is also appended to ``DIR/BENCH_ab.json``
as a relative ledger record: one per workload and end-to-end metric, its
value the median head/base ratio (unit ``x``), its direction and
tolerance the metric's ``BENCHMARK.json`` direction and bound, its
``git_sha`` the head commit and its ``scale`` the base commit, the
pairs, seconds, first seed, pairs won, base IQR, both medians and the
verdict.  ``--out`` needs an explicit ``HEAD``: a working tree is not a
commit, and may change while the pairs run, so its records could not
name what was measured.  A workload with a failed run or a wrong frame
is not ledgered.
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
        wide = any(max(runs) - min(runs) > metric["bound"]
                   * statistics.median(runs) for runs in (base, head))
        separated = (min(head) > max(base)) if higher else (
            max(head) < min(base))
        if (ratio < 1.0 - metric["bound"]) if higher else (
                ratio > 1.0 + metric["bound"]):
            verdict = "worse"
        elif wide and not separated:
            verdict = "unresolved"
        elif wins >= 0.9 * len(pairs) and (gain if higher else -gain) > iqr:
            verdict = "better"
        else:
            verdict = "same"
        rows.append({"metric": name, "unit": metric["unit"],
                     "better": metric["better"],
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


def ledger_records(workload: str, rows: list[dict], *, base_sha: str,
                   head_sha: str, seconds: float, seed: int) -> list:
    """One :class:`~repro.obs.ledger.BenchRecord` per row of
    :func:`summarize`: the verdict of *workload* as a relative record."""
    from repro.obs.ledger import BenchRecord

    records = []
    for r in rows:
        record = BenchRecord.create(
            "ab", workload, r["metric"], r["ratio"], unit="x",
            direction=f"{r['better']}_is_better", tolerance=r["bound"],
            scale={"base_sha": base_sha, "pairs": r["pairs"],
                   "seconds": seconds, "first_seed": seed,
                   "wins": r["wins"], "base_iqr": r["base_iqr"],
                   "base_median": r["base_median"],
                   "head_median": r["head_median"],
                   "verdict": r["verdict"]})
        record.git_sha = head_sha
        records.append(record)
    return records


def rev_parse(revision: str) -> str:
    return subprocess.run(["git", "rev-parse", revision], cwd=ROOT,
                          check=True, capture_output=True,
                          text=True).stdout.strip()


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


def run_side(tree: Path, workload: str, seed: int, seconds: float,
             trace: bool = False) -> dict:
    """One run of *tree*'s ``run.py`` in its own process, as
    :func:`parse_run` reads it plus its ``returncode``; ``failed`` is -1
    and ``error`` says why when it printed no summary."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "perf" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), *(["--trace"] if trace else [])],
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
                             "this working tree; required by --out)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=2020,
                        help="seed of the first pair; pair i uses seed+i")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="append each verdict to DIR/BENCH_ab.json")
    args = parser.parse_args(argv)
    if args.out is not None:
        if args.head is None:
            parser.error("--out needs an explicit HEAD revision: the "
                         "working tree is no commit its records can name")
        sys.path.insert(0, str(ROOT / "src"))
        from repro.obs.ledger import BenchLedger, ledger_path
        shas = {"base": rev_parse(args.base),
                "head": rev_parse(args.head or "HEAD")}

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
            pairs, failed = [], 0
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
                        failed += 1
                if all(pair[side]["metrics"] for side in SIDES):
                    pairs.append(pair)
            rows = summarize(pairs, spec["end_to_end"]) if pairs else []
            if failed:
                status = 1
            elif any(r["verdict"] == "worse" for r in rows) and not status:
                status = 2
            summaries.append(format_rows(workload, rows))
            if failed:
                summaries[-1] += f"\n  {failed} runs failed: not ledgered"
            print(summaries[-1], flush=True)
            if args.out is not None and rows and not failed:
                BenchLedger(ledger_path(args.out, "ab")).append(
                    ledger_records(workload, rows, base_sha=shas["base"],
                                   head_sha=shas["head"],
                                   seconds=args.seconds, seed=args.seed))
        print("\n".join(["", "summary", *summaries]))
    return status


if __name__ == "__main__":
    sys.exit(main())
