"""Command-line interface: generate, train, evaluate, demo, serve, power.

Everything a downstream user needs without writing Python::

    airfinger generate --users 3 --sessions 2 --reps 5 --out corpus.npz
    airfinger train --corpus corpus.npz --out stack.json
    airfinger evaluate --corpus corpus.npz --protocol overall
    airfinger robustness --corpus corpus.npz --out robustness.json
    airfinger demo --stack stack.json --gestures click,scroll_up,circle
    airfinger demo --stack stack.json --metrics-json metrics.json
    airfinger generate --out corpus.npz --trace-json trace.json
    airfinger trace trace.json [--top 10]
    airfinger stats metrics.json [--prometheus]
    airfinger serve --stack stack.json --port 7420
    airfinger loadgen --port 7420 --sessions 64 --duration 5
    airfinger top --port 7420
    airfinger telemetry timeline.jsonl
    airfinger profile --collapsed flame.collapsed -- generate --out c.npz
    airfinger bench compare --baseline benchmarks/baselines --current ledger/
    airfinger power

``serve`` runs the multi-stream gesture serving front-end
(:mod:`repro.serve`): one asyncio process multiplexing N device
connections through per-session engines, with bounded ingest queues,
drop-oldest backpressure and idle eviction (see ``docs/SERVING.md``).
``loadgen`` drives simulated 100 Hz devices against a running serve
process and reports sessions/core, p99 enqueue→processed frame latency
and the deadline-miss rate (``--report-json`` writes the full report;
``--telemetry-json`` additionally subscribes a ``watch`` connection and
records the server's live telemetry timeline; ``--fault-intensity``
injects a seeded frame-drop schedule into the offered load).

``top`` is the live terminal dashboard: it subscribes to a running
serve process's telemetry pushes and refreshes a screen of sessions,
per-tenant frame rates, sliding p99 latency, SLO burn rates and firing
alerts.  ``telemetry`` replays a recorded JSONL timeline (from
``serve --telemetry-json`` or ``loadgen --telemetry-json``) into a
summary: health-state counts, alert episodes, peak rates.

``robustness`` sweeps a deterministic fault schedule
(:mod:`repro.faults`) over the corpus and reports the accuracy-vs-fault
curve (JSON via ``--out``, markdown via ``--markdown``); its intensity-0
point is bit-identical to ``evaluate --protocol overall`` on the same
corpus.

``generate``, ``evaluate``, ``robustness`` and ``demo`` accept
``--metrics-json PATH``,
which dumps the process metrics registry (:mod:`repro.obs`) — per-stage
latency histograms, event/throughput counters, deadline misses — as a
JSON snapshot after the command finishes; ``stats`` renders such a
snapshot as tables or Prometheus text format.  The same three commands
accept ``--trace-json PATH`` (Chrome/Perfetto trace, loadable at
``ui.perfetto.dev``) and ``--trace-events PATH`` (JSONL event log),
which enable span tracing for the run and write the buffered spans when
it finishes; ``--trace-sample MODE`` overrides the sampling decision
(``0``/``off``, ``1``/``always``, or a ratio).  ``trace`` summarizes a
saved trace file: top spans by self-time, the critical path, and any
deadline-miss events.

``profile`` wraps any other subcommand in the continuous-profiling layer
(:mod:`repro.obs.prof`): a background :class:`SamplingProfiler` takes
stack samples at ``--hz`` while a :class:`StageProfile` attributes exact
exclusive self-time per pipeline stage; the hottest stages print as a
table and ``--collapsed`` / ``--chrome`` / ``--json`` export
flamegraph.pl collapsed stacks, a Chrome/Perfetto trace, and the raw
profile.  The hot commands (``generate``, ``evaluate``, ``robustness``,
``demo``, ``loadgen``) also accept ``--profile-json PATH`` to record the
stage profile without the sampler.

``bench`` works the persistent benchmark ledger
(:mod:`repro.obs.ledger`): ``bench compare --baseline <dir-or-file>
--current <dir-or-file>`` renders the per-metric trajectory against the
committed baseline and exits nonzero when any metric regressed beyond
its tolerance; ``bench show <ledger>`` prints a metric's history.  The
ledgers themselves are written by the benchmark suites under
``pytest --bench-report <dir>`` (see ``benchmarks/README.md``).

``generate`` and ``evaluate`` additionally write a
:class:`~repro.obs.manifest.RunManifest` next to their output — config
digest, seeds, package versions, platform, git SHA, metrics snapshot,
monotonic run duration — so every artifact can be traced back to the
exact invocation that produced it.

(Installed as the ``airfinger`` console script; also runnable as
``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="airfinger",
        description="airFinger (ICDCS 2020) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate",
                         help="simulate a data-collection campaign")
    gen.add_argument("--users", type=int, default=3)
    gen.add_argument("--sessions", type=int, default=2)
    gen.add_argument("--reps", type=int, default=5)
    gen.add_argument("--seed", type=int, default=2020)
    gen.add_argument("--workers", type=int, default=1,
                     help="worker processes (output is bit-identical "
                          "for every worker count)")
    gen.add_argument("--batch", type=int, default=64,
                     help="captures per batched radiometric pass")
    gen.add_argument("--chunk", type=int, default=None,
                     help="tasks per parallel work unit (default: auto)")
    gen.add_argument("--out", type=Path, required=True,
                     help="output corpus .npz path")
    gen.add_argument("--report-json", type=Path, default=None,
                     help="write wall-clock / throughput stats to this "
                          "JSON file")
    _add_metrics_json(gen)
    _add_trace_flags(gen)
    _add_profile_flag(gen)

    train = sub.add_parser("train",
                           help="train the recognition stack from a corpus")
    train.add_argument("--corpus", type=Path, required=True)
    train.add_argument("--out", type=Path, required=True,
                       help="output stack .json path")
    train.add_argument("--trees", type=int, default=60)

    ev = sub.add_parser("evaluate", help="run a paper protocol on a corpus")
    ev.add_argument("--corpus", type=Path, required=True)
    ev.add_argument("--protocol",
                    choices=("overall", "diversity", "inconsistency",
                             "tracking", "distinguisher", "stream"),
                    default="overall")
    ev.add_argument("--seed", type=int, default=2020,
                    help="campaign seed for the synthesized labelled "
                         "streams (stream protocol only)")
    ev.add_argument("--block", type=int, default=None,
                    help="frames per feed_block batch during stream "
                         "replay (stream protocol only; 1 replays frame "
                         "by frame, default picks the offline block "
                         "size)")
    _add_metrics_json(ev)
    _add_trace_flags(ev)
    _add_profile_flag(ev)

    rob = sub.add_parser(
        "robustness",
        help="sweep fault intensity and report accuracy-vs-fault curves")
    rob.add_argument("--corpus", type=Path, required=True)
    rob.add_argument("--faults", type=str,
                     default="frame_drop,jitter,channel_dropout,"
                             "saturation,stuck_code",
                     help="comma list of fault models to inject "
                          "(frame_drop, jitter, channel_dropout, "
                          "saturation, stuck_code)")
    rob.add_argument("--channel", type=int, default=None,
                     help="pin channel-scoped faults to this photodiode "
                          "column (default: per-recording RNG pick)")
    rob.add_argument("--intensities", type=str, default="0,0.25,0.5,0.75,1",
                     help="comma list of fault intensities to sweep "
                          "(include 0 for the clean control point)")
    rob.add_argument("--seed", type=int, default=2020,
                     help="fault-layer RNG seed (independent of the "
                          "campaign streams)")
    rob.add_argument("--splits", type=int, default=5,
                     help="stratified folds for the detect protocol")
    rob.add_argument("--stream-samples", type=int, default=6,
                     help="faulted recordings replayed through the live "
                          "engine per intensity (0 disables)")
    rob.add_argument("--block", type=int, default=None,
                     help="frames per feed_block batch during the stream "
                          "replays (1 replays frame by frame; the "
                          "curve is identical either way)")
    rob.add_argument("--out", type=Path, default=None,
                     help="write the accuracy-vs-fault curve to this "
                          "JSON file")
    rob.add_argument("--markdown", type=Path, default=None,
                     help="write the sweep as a markdown report")
    _add_metrics_json(rob)
    _add_trace_flags(rob)
    _add_profile_flag(rob)

    demo = sub.add_parser("demo",
                          help="stream a synthetic session through a stack")
    demo.add_argument("--stack", type=Path, required=True)
    demo.add_argument("--gestures", type=str,
                      default="click,circle,scroll_up")
    demo.add_argument("--user", type=int, default=0)
    demo.add_argument("--seed", type=int, default=2020)
    demo.add_argument("--block", type=int, default=None,
                      help="frames per feed_block batch during replay "
                           "(1 replays frame by frame; the printed "
                           "events are identical either way)")
    _add_metrics_json(demo)
    _add_trace_flags(demo)
    _add_profile_flag(demo)

    stats = sub.add_parser(
        "stats", help="render a metrics snapshot written by --metrics-json")
    stats.add_argument("snapshot", type=Path,
                       help="snapshot JSON path (from --metrics-json)")
    stats.add_argument("--prometheus", action="store_true",
                       help="emit Prometheus text exposition format "
                            "instead of tables")

    trace = sub.add_parser(
        "trace", help="summarize a trace file written by --trace-json "
                      "or --trace-events")
    trace.add_argument("trace_file", type=Path,
                       help="Chrome trace JSON or JSONL event log")
    trace.add_argument("--top", type=int, default=10,
                       help="rows to show in the self-time and "
                            "deadline-miss tables")

    report = sub.add_parser(
        "report", help="write a markdown evaluation report for a corpus")
    report.add_argument("--corpus", type=Path, required=True)
    report.add_argument("--out", type=Path, required=True)

    serve = sub.add_parser(
        "serve", help="run the multi-stream gesture serving front-end")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7420)
    serve.add_argument("--stack", type=Path, default=None,
                       help="trained stack .json; each session gets its "
                            "own engine built from it (default: bare "
                            "engines, segmentation + tracking only)")
    serve.add_argument("--idle-timeout", type=float, default=30.0,
                       help="seconds of silence before a session is "
                            "evicted (flushed + closed)")
    serve.add_argument("--max-queue", type=int, default=4096,
                       help="per-session ingest queue bound; overflow "
                            "drops the oldest frames (visible as "
                            "StreamGap events)")
    serve.add_argument("--max-batch", type=int, default=512,
                       help="max frames per feed_block dispatch batch")
    serve.add_argument("--slo", type=float, default=0.05,
                       help="enqueue->processed latency SLO in seconds "
                            "(misses count into serve.deadline_miss)")
    serve.add_argument("--telemetry-interval", type=float, default=1.0,
                       help="seconds between telemetry samples (watch "
                            "pushes, SLO/health evaluation)")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable the live telemetry plane (watch "
                            "subscriptions are then rejected)")
    serve.add_argument("--telemetry-json", type=Path, default=None,
                       help="append every telemetry tick to this JSONL "
                            "timeline (replay with 'airfinger telemetry')")
    serve.add_argument("--shards", type=int, default=1,
                       help="run N shard worker processes behind a fleet "
                            "control front-end; --port becomes the "
                            "control port and the per-shard data ports "
                            "are advertised in every hello_ack")
    serve.add_argument("--udp", action="store_true",
                       help="serve the datagram transport instead of "
                            "TCP (per-datagram session addressing; "
                            "lost datagrams surface as StreamGap "
                            "events, never as stalls)")

    loadgen = sub.add_parser(
        "loadgen", help="drive N simulated 100 Hz devices against a "
                        "running serve process")
    loadgen.add_argument("--host", type=str, default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7420)
    loadgen.add_argument("--sessions", type=int, default=64)
    loadgen.add_argument("--duration", type=float, default=5.0,
                         help="seconds of stream each device sends")
    loadgen.add_argument("--rate", type=float, default=100.0,
                         help="per-device frame rate (Hz)")
    loadgen.add_argument("--frames-per-send", type=int, default=10,
                         help="frames batched into one wire message")
    loadgen.add_argument("--seed", type=int, default=2020,
                         help="seed of the synthesized device capture")
    loadgen.add_argument("--tenants", type=int, default=1,
                         help="spread the devices across N tenants "
                              "(tenant-0, tenant-1, ...); against a "
                              "sharded fleet each tenant's devices are "
                              "routed to the shard owning it")
    loadgen.add_argument("--report-json", type=Path, default=None,
                         help="write the load report (sessions/core, "
                              "p99 latency, deadline-miss rate) to this "
                              "JSON file")
    loadgen.add_argument("--telemetry-json", type=Path, default=None,
                         help="subscribe a watch connection for the run "
                              "and append the server's telemetry ticks "
                              "to this JSONL timeline")
    loadgen.add_argument("--watch-interval", type=float, default=None,
                         help="requested telemetry push cadence in "
                              "seconds (default: every server tick)")
    loadgen.add_argument("--fault-intensity", type=float, default=0.0,
                         help="inject a seeded frame-drop fault schedule "
                              "into the offered load (0 = clean control; "
                              "gaps surface as SLO breaches)")
    _add_profile_flag(loadgen)

    prof = sub.add_parser(
        "profile", help="run another subcommand under the continuous "
                        "profiler (stack sampler + stage attribution)")
    prof.add_argument("--hz", type=float, default=97.0,
                      help="stack-sampling rate (an off-round default "
                           "avoids aliasing with 100 Hz frame loops)")
    prof.add_argument("--top", type=int, default=20,
                      help="rows in the printed stage table")
    prof.add_argument("--collapsed", type=Path, default=None,
                      help="write flamegraph.pl-compatible collapsed "
                           "stacks (render with flamegraph.pl or "
                           "speedscope)")
    prof.add_argument("--chrome", type=Path, default=None,
                      help="write the sample timeline as Chrome/Perfetto "
                           "trace JSON (ui.perfetto.dev)")
    prof.add_argument("--json", dest="out_json", type=Path, default=None,
                      help="write the raw sampling + stage profiles as "
                           "JSON")
    prof.add_argument("cmd", nargs=argparse.REMAINDER,
                      help="the airfinger subcommand to profile "
                           "(prefix with -- to separate its flags)")

    bench = sub.add_parser(
        "bench", help="benchmark ledger: compare against a baseline, "
                      "show trajectories")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    cmp_p = bench_sub.add_parser(
        "compare", help="flag per-metric regressions beyond tolerance")
    cmp_p.add_argument("--baseline", type=Path, required=True,
                       help="baseline BENCH_<suite>.json file, or a "
                            "directory of them")
    cmp_p.add_argument("--current", type=Path, required=True,
                       help="current-run ledger file or directory")
    cmp_p.add_argument("--tolerance", type=float, default=None,
                       help="default relative tolerance for records that "
                            "do not pin their own (default 0.25)")
    cmp_p.add_argument("--json", action="store_true",
                       help="emit the comparison rows as JSON")
    show_p = bench_sub.add_parser(
        "show", help="print per-metric record history from a ledger")
    show_p.add_argument("ledger", type=Path,
                        help="BENCH_<suite>.json file or a directory of "
                             "them")
    show_p.add_argument("--last", type=int, default=10,
                        help="history entries per metric")

    top = sub.add_parser(
        "top", help="live telemetry dashboard for a running serve process")
    top.add_argument("--host", type=str, default="127.0.0.1")
    top.add_argument("--port", type=int, default=7420)
    top.add_argument("--interval", type=float, default=None,
                     help="requested push cadence in seconds (default: "
                          "every server telemetry tick)")
    top.add_argument("--ticks", type=int, default=0,
                     help="exit after this many refreshes (0 = run until "
                          "interrupted)")
    top.add_argument("--no-clear", action="store_true",
                     help="append screens instead of clearing the "
                          "terminal between refreshes")

    telemetry = sub.add_parser(
        "telemetry", help="summarize a recorded JSONL telemetry timeline")
    telemetry.add_argument("timeline", type=Path,
                           help="JSONL timeline path (from serve/loadgen "
                                "--telemetry-json)")
    telemetry.add_argument("--json", action="store_true",
                           help="emit the summary as JSON instead of text")
    telemetry.add_argument("--last", action="store_true",
                           help="also render the final tick as a "
                                "dashboard screen")

    sub.add_parser("power", help="print the power budget table")
    return parser


def _add_metrics_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-json", type=Path, default=None,
                        help="dump the repro.obs metrics snapshot "
                             "(stage latencies, counters) to this JSON "
                             "file when the command finishes")


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-json", type=Path, default=None,
                        help="enable span tracing and write a "
                             "Chrome/Perfetto trace (ui.perfetto.dev) "
                             "to this file when the command finishes")
    parser.add_argument("--trace-events", type=Path, default=None,
                        help="enable span tracing and write a JSONL "
                             "event log (one line per span/event) to "
                             "this file when the command finishes")
    parser.add_argument("--trace-sample", type=str, default=None,
                        help="trace sampling: 0/off, 1/always, or a "
                             "ratio in (0, 1); defaults to REPRO_TRACE "
                             "(or 'always' when a trace output path is "
                             "given)")


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile-json", type=Path, default=None,
                        help="record the deterministic stage profile "
                             "(exclusive time per pipeline stage) for "
                             "the run and write it to this JSON file; "
                             "use 'airfinger profile' for stack "
                             "sampling too")


def _write_metrics_json(path: Path) -> None:
    from repro.obs import get_registry

    path.write_text(get_registry().snapshot().to_json() + "\n")
    print(f"metrics snapshot -> {path}")


def _configure_tracer(args) -> None:
    """Install a sampling tracer when the invocation asked for one."""
    from repro.obs import Tracer, set_tracer

    sample = getattr(args, "trace_sample", None)
    wants_output = (getattr(args, "trace_json", None) is not None
                    or getattr(args, "trace_events", None) is not None)
    if sample is None and wants_output:
        sample = "1"
    if sample is not None:
        set_tracer(Tracer(sample=sample))


def _write_trace_outputs(args) -> None:
    """Export the buffered spans to the requested trace file(s)."""
    trace_json = getattr(args, "trace_json", None)
    trace_events = getattr(args, "trace_events", None)
    if trace_json is None and trace_events is None:
        return
    from repro.obs import chrome_trace_json, get_tracer, spans_to_jsonl

    spans = get_tracer().finished_spans()
    if trace_json is not None:
        trace_json.write_text(chrome_trace_json(spans) + "\n")
        print(f"chrome trace ({len(spans)} spans) -> {trace_json}")
    if trace_events is not None:
        trace_events.write_text(spans_to_jsonl(spans))
        print(f"trace event log ({len(spans)} spans) -> {trace_events}")


# Monotonic start of the current invocation + the profile artifact it
# will write, stamped into every RunManifest (set by main()).
_RUN_START_S: float | None = None
_PROFILE_REF: dict | None = None


def _write_manifest(command: str, config: dict, seeds: dict,
                    path: Path) -> None:
    """Write a RunManifest for the finished command next to its output."""
    import time

    from repro.obs import (
        RunManifest,
        get_registry,
        get_tracer,
        summarize_trace,
    )

    spans = get_tracer().finished_spans()
    duration_s = (time.perf_counter() - _RUN_START_S
                  if _RUN_START_S is not None else None)
    manifest = RunManifest.create(
        command, config, seeds=seeds,
        metrics=get_registry().snapshot().to_dict(),
        trace_summary=summarize_trace(spans) if spans else None,
        duration_s=duration_s,
        profile=_PROFILE_REF)
    manifest.write(path)
    print(f"run manifest -> {path}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    import json
    import time

    from repro.datasets import (
        CampaignConfig,
        CampaignGenerator,
        ParallelCampaignGenerator,
    )
    config = CampaignConfig(
        n_users=args.users, n_sessions=args.sessions,
        repetitions=args.reps, seed=args.seed)
    if args.workers > 1:
        generator = ParallelCampaignGenerator(
            config=config, workers=args.workers,
            chunk_size=args.chunk, batch_size=args.batch)
    else:
        generator = CampaignGenerator(config=config, batch_size=args.batch)
    start = time.perf_counter()
    corpus = generator.main_campaign()
    elapsed = time.perf_counter() - start
    corpus.save(args.out)
    rate = len(corpus) / elapsed if elapsed > 0 else float("inf")
    print(f"wrote {len(corpus)} samples to {args.out} "
          f"({elapsed:.2f}s wall, {rate:.1f} samples/s, "
          f"workers={args.workers}, batch={args.batch})")
    if args.report_json is not None:
        report = {
            "command": "generate",
            "n_samples": len(corpus),
            "wall_clock_s": elapsed,
            "samples_per_sec": rate,
            "workers": args.workers,
            "batch_size": args.batch,
            "chunk_size": args.chunk,
            "seed": args.seed,
            "n_users": args.users,
            "n_sessions": args.sessions,
            "repetitions": args.reps,
        }
        args.report_json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"throughput report -> {args.report_json}")
    _write_manifest(
        "generate",
        config={"n_users": args.users, "n_sessions": args.sessions,
                "repetitions": args.reps, "seed": args.seed,
                "workers": args.workers, "batch_size": args.batch,
                "chunk_size": args.chunk, "out": str(args.out)},
        seeds={"campaign": args.seed},
        path=args.out.with_suffix(".manifest.json"))
    return 0


def _cmd_train(args) -> int:
    from repro.core.detector import DetectAimedRecognizer
    from repro.core.persistence import save_stack
    from repro.datasets import GestureCorpus
    from repro.ml.forest import RandomForestClassifier

    corpus = GestureCorpus.load(args.corpus)
    detect = corpus.filter(lambda s: not s.is_track_aimed)
    if len(detect) == 0:
        print("corpus holds no detect-aimed samples", file=sys.stderr)
        return 1
    detector = DetectAimedRecognizer(
        model_factory=lambda: RandomForestClassifier(
            n_estimators=args.trees, random_state=7))
    detector.fit(detect.signals(), detect.labels)
    save_stack(args.out, detector=detector)
    print(f"trained on {len(detect)} samples "
          f"({len(set(detect.labels))} gestures); stack -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.datasets import GestureCorpus
    from repro.eval.protocols import (
        compute_features,
        distinguisher_performance,
        gesture_inconsistency,
        individual_diversity,
        overall_detect_performance,
        track_direction_accuracy,
    )
    from repro.eval.report import format_confusion

    corpus = GestureCorpus.load(args.corpus)

    def finish() -> int:
        _write_manifest(
            "evaluate",
            config={"corpus": str(args.corpus),
                    "protocol": args.protocol,
                    "block": args.block,
                    "n_samples": len(corpus)},
            seeds={},
            path=args.corpus.with_name(
                f"{args.corpus.stem}.{args.protocol}.manifest.json"))
        return 0

    if args.protocol == "stream":
        from repro.core.detector import DetectAimedRecognizer
        from repro.core.pipeline import AirFinger
        from repro.datasets import CampaignConfig, CampaignGenerator
        from repro.eval.stream_protocols import evaluate_streams
        from repro.hand.gestures import GESTURE_NAMES

        users = sorted({int(u) for u in corpus.users}) or [0]
        generator = CampaignGenerator(CampaignConfig(
            n_users=max(users) + 1, seed=args.seed))
        streams = [generator.stream(u, list(GESTURE_NAMES), idle_s=0.8)
                   for u in users]
        # train the recognizer on the corpus so the replay scores
        # recognition, not just segmentation
        detector = None
        detect = corpus.filter(lambda s: not s.is_track_aimed)
        if len(detect):
            detector = DetectAimedRecognizer()
            detector.fit(detect.signals(), detect.labels)
        engine = AirFinger(config=corpus.config, detector=detector)
        score = evaluate_streams(engine, streams, block_size=args.block)
        for name, acc in score.per_gesture_accuracy().items():
            print(f"{name:<14} {acc:.2%}")
        print(f"detection recall     {score.detection_recall:.2%}")
        print(f"recognition accuracy {score.recognition_accuracy:.2%}")
        print(f"spurious events      {score.spurious_events}")
        return finish()
    if args.protocol == "tracking":
        result = track_direction_accuracy(corpus)
        for name, acc in result.direction_accuracy.items():
            print(f"{name:<14} {acc:.2%}")
        print(f"average        {result.average_direction_accuracy:.2%}")
        return finish()
    if args.protocol == "distinguisher":
        result = distinguisher_performance(corpus)
        print(str(result.summary))
        return finish()
    X = compute_features(corpus)
    protocol = {
        "overall": overall_detect_performance,
        "diversity": individual_diversity,
        "inconsistency": gesture_inconsistency,
    }[args.protocol]
    try:
        result = protocol(corpus, X=X)
    except ValueError as exc:
        print(f"cannot run {args.protocol!r} on this corpus: {exc}",
              file=sys.stderr)
        return 1
    print(format_confusion(result.summary.labels, result.summary.confusion))
    print()
    print(str(result.summary))
    return finish()


def _cmd_robustness(args) -> int:
    import json

    from repro.datasets import GestureCorpus
    from repro.eval.robustness import (
        render_robustness_markdown,
        robustness_sweep,
    )
    from repro.faults import (
        ChannelDropoutFault,
        FaultSchedule,
        FrameDropFault,
        JitterFault,
        SaturationFault,
        StuckCodeFault,
    )

    factories = {
        "frame_drop": lambda: FrameDropFault(),
        "jitter": lambda: JitterFault(),
        "channel_dropout": lambda: ChannelDropoutFault(channel=args.channel),
        "saturation": lambda: SaturationFault(),
        "stuck_code": lambda: StuckCodeFault(channel=args.channel),
    }
    names = [f.strip() for f in args.faults.split(",") if f.strip()]
    unknown = [n for n in names if n not in factories]
    if unknown:
        print(f"unknown fault model(s): {', '.join(unknown)} "
              f"(choose from {', '.join(sorted(factories))})",
              file=sys.stderr)
        return 1
    try:
        intensities = [float(w) for w in args.intensities.split(",") if w]
    except ValueError:
        print(f"cannot parse --intensities {args.intensities!r}",
              file=sys.stderr)
        return 1

    corpus = GestureCorpus.load(args.corpus)
    schedule = FaultSchedule(
        faults=tuple(factories[n]() for n in names), seed=args.seed)
    try:
        result = robustness_sweep(
            corpus, schedule, intensities=intensities,
            n_splits=args.splits, stream_samples=args.stream_samples,
            block_size=args.block)
    except ValueError as exc:
        print(f"cannot run robustness sweep on this corpus: {exc}",
              file=sys.stderr)
        return 1

    print(f"{'intensity':>9} {'accuracy':>9} {'injected':>9} "
          f"{'dropped':>8} {'gaps':>5} {'masks':>6}")
    for p in result.points:
        print(f"{p.intensity:>9g} {p.accuracy:>9.4f} {p.n_injected:>9} "
              f"{p.n_dropped:>8} {p.stream_gaps:>5} "
              f"{p.stream_mask_transitions:>6}")
    drop = result.accuracy_drop()
    if drop is not None:
        print(f"accuracy drop at worst intensity: {drop:.4f}")
    if args.out is not None:
        args.out.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
        print(f"robustness curve -> {args.out}")
    if args.markdown is not None:
        args.markdown.write_text(render_robustness_markdown(result))
        print(f"robustness report -> {args.markdown}")
    _write_manifest(
        "robustness",
        config={"corpus": str(args.corpus), "faults": names,
                "intensities": intensities, "seed": args.seed,
                "splits": args.splits, "channel": args.channel,
                "block": args.block, "n_samples": len(corpus)},
        seeds={"faults": args.seed},
        path=args.corpus.with_name(
            f"{args.corpus.stem}.robustness.manifest.json"))
    return 0


def _cmd_demo(args) -> int:
    from repro.core.events import GestureEvent, ScrollUpdate, SegmentEvent
    from repro.core.persistence import load_stack
    from repro.datasets import CampaignConfig, CampaignGenerator

    stack = load_stack(args.stack)
    engine = stack["engine"]
    gestures = [g.strip() for g in args.gestures.split(",") if g.strip()]
    generator = CampaignGenerator(CampaignConfig(
        n_users=max(args.user + 1, 1), seed=args.seed))
    stream = generator.stream(args.user, gestures)
    truth = [n for n, _, _ in stream.recording.meta["segments"]
             if n != "idle"]
    print(f"ground truth: {truth}")
    for event in engine.feed_recording(stream.recording,
                                       block_size=args.block):
        if isinstance(event, SegmentEvent):
            print(f"t={event.start_time_s:6.2f}s segment "
                  f"[{event.start_index}, {event.end_index})")
        elif isinstance(event, GestureEvent):
            tag = "gesture" if event.accepted else "rejected"
            print(f"    -> {tag} {event.label!r} ({event.confidence:.0%})")
        elif isinstance(event, ScrollUpdate) and event.final:
            print(f"    -> {event.direction_name} at "
                  f"{event.velocity_mm_s:.0f} mm/s")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import (AirFingerServer, ServeConfig, SessionManager,
                             UdpAirFingerServer)

    config = ServeConfig(
        max_queue_frames=args.max_queue, max_batch_frames=args.max_batch,
        idle_timeout_s=args.idle_timeout, latency_slo_s=args.slo)
    if args.shards > 1 and args.udp:
        print("--shards and --udp are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.shards > 1:
        if args.stack is not None:
            print("--stack is not supported with --shards: the worker "
                  "processes build their own engines", file=sys.stderr)
            return 2
        return _serve_sharded(args, config)
    engine_factory = None
    if args.stack is not None:
        from repro.core.persistence import load_stack
        from repro.core.pipeline import AirFinger, AirFingerConfig
        from repro.obs import get_registry, get_tracer

        stack = load_stack(args.stack)
        detector = stack["detector"]
        interference = stack["interference_filter"]
        # stacks saved without an explicit config serve with the defaults
        stack_config = stack["config"] or AirFingerConfig()

        def engine_factory() -> AirFinger:
            return AirFinger(config=stack_config, detector=detector,
                             interference_filter=interference,
                             metrics=get_registry(), tracer=get_tracer())

    manager = SessionManager(config, engine_factory=engine_factory)
    server_class = UdpAirFingerServer if args.udp else AirFingerServer
    server = server_class(
        manager, host=args.host, port=args.port,
        telemetry=not args.no_telemetry,
        telemetry_interval_s=args.telemetry_interval,
        timeline_path=args.telemetry_json)

    async def run() -> None:
        await server.start()
        telemetry = ("off" if server.telemetry is None
                     else f"{server.telemetry.interval_s:g}s")
        print(f"serving{' UDP' if args.udp else ''} on "
              f"{server.host}:{server.port} "
              f"(slo={config.latency_slo_s * 1e3:.0f}ms, "
              f"idle-timeout={config.idle_timeout_s:.0f}s, "
              f"telemetry={telemetry})")
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nserve stopped")
    return 0


def _serve_sharded(args, config) -> int:
    """``serve --shards N``: the multi-process fleet front-end."""
    import asyncio

    from repro.serve import ShardCluster, ShardConfig

    shard_config = ShardConfig(
        shards=args.shards, host=args.host, control_port=args.port,
        serve=config, telemetry_interval_s=args.telemetry_interval)

    async def run() -> None:
        async with ShardCluster(shard_config) as cluster:
            control = cluster.control
            ports = [s["port"] for s in cluster.shard_listing]
            print(f"fleet control on {control.host}:{control.port} — "
                  f"{args.shards} shard workers, data ports {ports} "
                  f"(slo={config.latency_slo_s * 1e3:.0f}ms)")
            print("clients read the shard listing from hello_ack and "
                  "route data connections by tenant")
            await asyncio.Event().wait()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nfleet stopped")
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio
    import json

    from repro.serve import LoadConfig, ServeClient, run_load

    config = LoadConfig(host=args.host, port=args.port,
                        sessions=args.sessions, duration_s=args.duration,
                        rate_hz=args.rate,
                        frames_per_send=args.frames_per_send,
                        seed=args.seed, tenants=args.tenants,
                        fault_intensity=args.fault_intensity)

    async def run():
        # a fleet front-end advertises its shard listing in hello_ack;
        # route the device connections accordingly, control/telemetry
        # stay on the dialed port (the merged view)
        probe = await ServeClient.connect(args.host, args.port,
                                          config.tenant, "route-probe")
        shards = probe.shards or None
        await probe.bye(timeout_s=5.0)
        return shards, await run_load(
            config, telemetry_path=args.telemetry_json,
            watch_interval_s=args.watch_interval, shards=shards)

    try:
        shards, report = asyncio.run(run())
    except ConnectionError as exc:
        print(f"cannot reach serve process at {args.host}:{args.port}: "
              f"{exc}", file=sys.stderr)
        return 1
    p99 = report.frame_latency_p99_s
    if shards:
        print(f"fleet             {len(shards)} shards "
              f"(routing {report.tenants} tenants by crc32)")
    print(f"sessions          {report.sessions}")
    print(f"frames sent       {report.frames_sent}")
    print(f"events received   {report.events_received}")
    print(f"backpressure drops {report.backpressure_drops:.0f}")
    print(f"p99 frame latency {p99 * 1e3:.2f} ms"
          if p99 is not None else "p99 frame latency n/a")
    print(f"deadline misses   {report.deadline_misses:.0f} "
          f"({report.deadline_miss_rate:.2%})")
    if report.late_batches:
        print(f"late send batches {report.late_batches} "
              f"(max lag {report.max_send_lag_s * 1e3:.1f} ms — the "
              f"offered load lagged its own schedule)")
    print(f"sessions/core     {report.sessions_per_core:.1f}")
    rtt = report.heartbeat_rtt_p99_ms
    if rtt is not None:
        print(f"heartbeat RTT p99 {rtt:.2f} ms")
    if args.telemetry_json is not None:
        print(f"telemetry ticks   {report.telemetry_ticks} "
              f"(alert episodes: {report.alerts_fired})")
        print(f"telemetry timeline -> {args.telemetry_json}")
    if args.report_json is not None:
        args.report_json.write_text(
            json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"load report -> {args.report_json}")
    return 0


def _cmd_top(args) -> int:
    import asyncio
    import os

    from repro.obs import render_top
    from repro.serve import ServeClient

    async def run() -> int:
        try:
            client = await ServeClient.connect(
                args.host, args.port, "ops", f"top-{os.getpid()}")
        except (ConnectionError, OSError) as exc:
            print(f"cannot reach serve process at {args.host}:{args.port}: "
                  f"{exc}", file=sys.stderr)
            return 1
        await client.watch(args.interval)
        shown = 0
        try:
            while args.ticks <= 0 or shown < args.ticks:
                tick = await client.next_telemetry(timeout_s=60.0)
                if not args.no_clear:
                    # ANSI clear + home: repaint in place like top(1)
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(render_top(tick))
                sys.stdout.flush()
                shown += 1
        finally:
            try:
                await client.bye(timeout_s=5.0)
            except Exception:
                pass
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("\ntop stopped")
        return 0


def _cmd_telemetry(args) -> int:
    import json

    from repro.obs import (
        load_timeline,
        render_telemetry_summary,
        render_top,
        summarize_timeline,
    )

    try:
        ticks = load_timeline(args.timeline)
    except (OSError, ValueError) as exc:
        print(f"cannot read telemetry timeline {args.timeline}: {exc}",
              file=sys.stderr)
        return 1
    summary = summarize_timeline(ticks)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_telemetry_summary(summary))
    if args.last and ticks:
        print()
        print(render_top(ticks[-1]))
    return 0


def _cmd_power(args) -> int:
    from repro.power import DutyCycle, PowerBudget, battery_life_hours
    schemes = {
        "always-on (paper)": DutyCycle.always_on(),
        "strobed LEDs": DutyCycle.strobed(),
        "wristband + BLE": DutyCycle.wristband(),
    }
    print(f"{'scheme':<20} {'front end':>10} {'total':>10} {'100mAh life':>12}")
    for name, duty in schemes.items():
        budget = PowerBudget(duty=duty)
        print(f"{name:<20} {budget.sensing_front_end_mw():>8.1f}mW "
              f"{budget.total_mw():>8.1f}mW "
              f"{battery_life_hours(budget):>10.1f}h")
    return 0


def _cmd_stats(args) -> int:
    from repro.obs import MetricsSnapshot, prometheus_text, render_snapshot

    try:
        snapshot = MetricsSnapshot.from_json(args.snapshot.read_text())
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read metrics snapshot {args.snapshot}: {exc}",
              file=sys.stderr)
        return 1
    if args.prometheus:
        sys.stdout.write(prometheus_text(snapshot))
    else:
        print(render_snapshot(snapshot))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import load_trace, render_trace_summary, summarize_trace

    try:
        spans = load_trace(args.trace_file)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read trace {args.trace_file}: {exc}",
              file=sys.stderr)
        return 1
    sys.stdout.write(render_trace_summary(summarize_trace(spans),
                                          top=args.top))
    return 0


def _cmd_report(args) -> int:
    from repro.datasets import GestureCorpus
    from repro.eval.report_markdown import generate_report

    corpus = GestureCorpus.load(args.corpus)
    path = generate_report(corpus, args.out)
    print(f"report for {len(corpus)} samples -> {path}")
    return 0


def _cmd_profile(args) -> int:
    import json
    import time

    from repro.obs import (
        SamplingProfiler,
        StageProfile,
        render_stage_profile,
        set_stage_profile,
    )

    argv = list(args.cmd)
    if argv and argv[0] == "--":
        argv = argv[1:]
    if not argv:
        print("profile: no subcommand given (e.g. 'airfinger profile -- "
              "generate --out corpus.npz')", file=sys.stderr)
        return 2
    if argv[0] in ("profile", "bench"):
        print(f"profile: cannot wrap {argv[0]!r}", file=sys.stderr)
        return 2

    profiler = SamplingProfiler(hz=args.hz)
    profile = StageProfile()
    previous = set_stage_profile(profile)
    t0 = time.perf_counter()
    profiler.start()
    try:
        code = main(argv)
    finally:
        profiler.stop()
        set_stage_profile(previous)
    duration_s = time.perf_counter() - t0

    print()
    print(f"profiled '{' '.join(argv)}': {duration_s:.2f}s wall, "
          f"{profiler.n_samples} stack samples @ {profiler.hz:g} Hz")
    print(render_stage_profile(profile, top=args.top))
    if args.collapsed is not None:
        args.collapsed.write_text(profiler.collapsed() + "\n")
        print(f"collapsed stacks -> {args.collapsed}")
    if args.chrome is not None:
        args.chrome.write_text(profiler.chrome_json() + "\n")
        print(f"chrome trace -> {args.chrome}")
    if args.out_json is not None:
        payload = {
            "schema": 1,
            "command": argv,
            "duration_s": duration_s,
            "sampling": profiler.to_dict(),
            "stage_profile": profile.to_dict(),
        }
        args.out_json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"profile -> {args.out_json}")
    return code


def _cmd_bench(args) -> int:
    import json

    from repro.obs import (
        compare_records,
        load_ledgers,
        render_comparison,
        render_trajectory,
    )

    if args.bench_command == "show":
        try:
            records = load_ledgers(args.ledger)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot read ledger {args.ledger}: {exc}",
                  file=sys.stderr)
            return 1
        print(render_trajectory(records, last=args.last))
        return 0

    # A typo'd path must fail loudly: silently comparing an empty ledger
    # would wave every regression through the CI gate.
    for label, path in (("baseline", args.baseline),
                        ("current", args.current)):
        if not Path(path).exists():
            print(f"cannot read {label} ledger: {path} does not exist",
                  file=sys.stderr)
            return 1
    try:
        baseline = load_ledgers(args.baseline)
        current = load_ledgers(args.current)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read ledger: {exc}", file=sys.stderr)
        return 1
    rows = compare_records(baseline, current, tolerance=args.tolerance)
    if args.json:
        print(json.dumps([row.to_dict() for row in rows], indent=2))
    else:
        print(render_comparison(rows))
    regressions = [row for row in rows if row.status == "regression"]
    if regressions:
        for row in regressions:
            change = ("" if row.change is None
                      else f" ({row.change:+.1%}, tolerance "
                           f"{row.tolerance:.0%})")
            print(f"REGRESSION: {row.suite}/{row.benchmark}/{row.metric}"
                  f"{change}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "robustness": _cmd_robustness,
    "demo": _cmd_demo,
    "report": _cmd_report,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "top": _cmd_top,
    "telemetry": _cmd_telemetry,
    "power": _cmd_power,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    import time

    global _RUN_START_S, _PROFILE_REF
    args = build_parser().parse_args(argv)
    _RUN_START_S = time.perf_counter()
    _configure_tracer(args)
    profile_json = getattr(args, "profile_json", None)
    installed = previous = None
    swapped = False
    if profile_json is not None:
        from repro.obs import StageProfile, get_stage_profile, set_stage_profile

        # Under 'airfinger profile' a profile is already active — record
        # into it so the wrapper's table and this file agree.
        installed = get_stage_profile()
        if installed is None:
            installed = StageProfile()
            previous = set_stage_profile(installed)
            swapped = True
        _PROFILE_REF = {"path": str(profile_json), "kind": "stage_profile"}
    try:
        code = _COMMANDS[args.command](args)
    finally:
        if swapped:
            from repro.obs import set_stage_profile

            set_stage_profile(previous)
        if installed is not None:
            _PROFILE_REF = None
    if installed is not None:
        import json

        payload = {
            "schema": 1,
            "command": args.command,
            "duration_s": time.perf_counter() - _RUN_START_S,
            "stage_profile": installed.to_dict(),
        }
        profile_json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"stage profile -> {profile_json}")
    if getattr(args, "metrics_json", None) is not None:
        _write_metrics_json(args.metrics_json)
    _write_trace_outputs(args)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
