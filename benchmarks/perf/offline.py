"""``offline``: recordings replayed in large blocks, as research code does.

A repetition replays 6 idle-dominated recordings (9 600 frames) through
``feed_block`` in ``DEFAULT_BLOCK_SIZE`` blocks plus a final ``flush`` —
exactly what ``AirFinger.feed_recording`` does, one block at a time so
each block is a unit of its own.  No serve code runs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import harness as h
import layers
from repro.acquisition.stream import stream_blocks, stream_frames
from repro.core.pipeline import DEFAULT_BLOCK_SIZE, AirFinger
from repro.obs import MetricsRegistry, Tracer

RECORDINGS = 6
RECORDING_FRAMES = 1600


@dataclass
class Rep:
    cpu_s: float
    frames: int
    #: per ``(recording, block)``: CPU to cut the block and feed it;
    #: per ``(recording, "flush")``: the end-of-stream flush
    unit_cpu_s: dict
    #: the blocks whose replay closed a segment
    closing: set
    events: list
    registry: MetricsRegistry
    trace: layers.LayerTrace | None

    @property
    def block_cpu_s(self) -> list[float]:
        return [v for (_r, b), v in self.unit_cpu_s.items() if b != "flush"]


def run_rep(detector, recordings: list, trace=None) -> Rep:
    registry = MetricsRegistry()
    engines = [AirFinger(detector=detector, metrics=registry,
                         tracer=Tracer(sample=0.0))
               for _ in recordings]
    events = [[] for _ in recordings]
    units: dict = {}
    closing: set = set()
    cpu = h.cpu_s
    h.quiesce()
    if trace is not None:
        trace.install()
    t0 = cpu()
    for r, (engine, recording, out) in enumerate(
            zip(engines, recordings, events)):
        blocks = stream_blocks(recording, DEFAULT_BLOCK_SIZE)
        for b in range(-(-recording.n_samples // DEFAULT_BLOCK_SIZE)):
            u0 = cpu()
            emitted = engine.feed_block(next(blocks))
            units[r, b] = cpu() - u0
            out.extend(emitted)
            if h.closes_segment(emitted):
                closing.add((r, b))
        u0 = cpu()
        out.extend(engine.flush())
        units[r, "flush"] = cpu() - u0
    rep_cpu = cpu() - t0
    if trace is not None:
        trace.uninstall()
    return Rep(cpu_s=rep_cpu, frames=sum(r.n_samples for r in recordings),
               unit_cpu_s=units, closing=closing,
               events=events,
               registry=registry, trace=trace)


def reference_digests(detector, recordings: list) -> list[str]:
    """Per-frame ``feed`` loop plus ``flush`` per recording, checked
    against ``feed_recording``; computed once, untimed."""
    digests = []
    for recording in recordings:
        scalar = h.digest(h.replay(detector, stream_frames(recording),
                                   block_size=1))
        engine = AirFinger(detector=detector, metrics=MetricsRegistry(),
                           tracer=Tracer(sample=0.0))
        if h.digest(engine.feed_recording(recording)) != scalar:
            raise RuntimeError("feed_recording diverged from per-frame feed")
        digests.append(scalar)
    return digests


def run(seed: int, seconds: float, traced: bool) -> h.Result:
    recordings = h.idle_captures(seed, RECORDINGS, RECORDING_FRAMES)
    stats = h.timed_setups()
    detector = stats.detector
    refs = reference_digests(detector, recordings)
    run_rep(detector, recordings)               # warm-up
    reps = h.repeat(seconds, lambda _i, t: run_rep(
        detector, recordings, layers.LayerTrace() if t else None), traced)
    rss_mb = h.peak_rss_mb()

    attempted = failed = 0
    for rep in reps:
        for recording, out, ref in zip(recordings, rep.events, refs):
            attempted += recording.n_samples
            failed += recording.n_samples * (h.digest(out) != ref)
    plain = [r for r in reps if r.trace is None]
    notes = {"repetitions": len(plain),
             "blocks_per_repetition": len(plain[0].block_cpu_s),
             "error_rate": failed / attempted}
    if not traced:
        units = h.unit_min([r.unit_cpu_s for r in plain])
        blocks = [v for (_r, b), v in units.items() if b != "flush"]
        notes["latency_p50_ms"] = 1e3 * h.percentile(blocks, 50)
        notes["latency_p90_ms"] = 1e3 * h.percentile(blocks, 90)
        notes["segment_latency_ms"] = 1e3 * h.percentile(
            [units[k] for k in plain[0].closing], 50)
        metrics = {
            "setup_s": stats.setup_s,
            "frames_per_cpu_s": plain[0].frames / sum(units.values()),
            "latency_mean_ms": 1e3 * statistics.fmean(blocks),
            "rss_mb": rss_mb,
        }
        return h.Result(metrics, attempted, failed, notes)

    traced_reps = [r for r in reps if r.trace is not None]
    frames = sum(r.frames for r in traced_reps)
    cpu = sum(r.cpu_s for r in traced_reps)
    counts = [layers.event_counts(e for out in r.events for e in out)
              for r in traced_reps]
    metrics = layers.layer_metrics(
        layers.merge([r.trace.snapshot() for r in traced_reps]),
        frames=frames, traced_cpu_s=cpu,
        overhead_share=h.overhead_share(traced_reps, plain),
        segments=sum(c[0] for c in counts),
        useful=sum(c[1] for c in counts),
        faults=sum(h.faults(r.registry.snapshot()) for r in traced_reps))
    return h.Result(metrics, attempted, failed, notes,
                    closure_ok=h.closure_ok(metrics, cpu, frames))
