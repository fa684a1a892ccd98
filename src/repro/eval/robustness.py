"""Accuracy-vs-fault-intensity sweeps: how gracefully does airFinger fail?

The paper's Section VI measures degradation under real-world stress
(sunlight, distance, user diversity); this protocol measures it under the
*hardware* faults of :mod:`repro.faults`.  A :class:`FaultSchedule` is
swept over a grid of intensities; at each point the corpus is re-faulted
deterministically, the standard detect protocol is re-run, and a handful
of faulted streams are pushed through the live :class:`AirFinger` engine
to exercise the degradation machinery (gap bridging, segmenter resets,
channel masking) end to end.

Intensity 0 is the control point: the schedule passes recordings through
untouched and the fault RNG streams are never drawn, so its accuracy is
bit-identical to :func:`~repro.eval.protocols.overall_detect_performance`
on the clean corpus — the invariant the ``airfinger robustness`` CLI (and
CI) checks against ``airfinger evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.core.events import ChannelMaskEvent, SegmentEvent, StreamGap
from repro.core.pipeline import DEFAULT_BLOCK_SIZE, AirFinger
from repro.datasets.corpus import GestureCorpus
from repro.eval.protocols import (
    EvaluationResult,
    default_model_factory,
    overall_detect_performance,
)
from repro.faults.schedule import FaultSchedule
from repro.features.extractor import FeatureExtractor
from repro.obs import get_registry, get_tracer

__all__ = ["RobustnessPoint", "RobustnessResult", "robustness_sweep",
           "render_robustness_markdown"]

DEFAULT_INTENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class RobustnessPoint:
    """One intensity step of the sweep.

    ``n_injected`` / ``n_dropped`` aggregate over the whole corpus;
    ``stream_*`` numbers come from replaying ``stream_samples`` faulted
    recordings through the live engine.
    """

    intensity: float
    accuracy: float
    n_injected: int
    n_dropped: int
    stream_gaps: int
    stream_mask_transitions: int
    stream_segments: int

    def to_dict(self) -> dict:
        return {
            "intensity": self.intensity,
            "accuracy": self.accuracy,
            "n_injected": self.n_injected,
            "n_dropped": self.n_dropped,
            "stream_gaps": self.stream_gaps,
            "stream_mask_transitions": self.stream_mask_transitions,
            "stream_segments": self.stream_segments,
        }


@dataclass
class RobustnessResult:
    """Outcome of :func:`robustness_sweep`."""

    faults: tuple[str, ...]
    seed: int
    points: list[RobustnessPoint] = field(default_factory=list)
    detect_results: dict[float, EvaluationResult] = field(
        default_factory=dict)

    @property
    def baseline_accuracy(self) -> float | None:
        """Accuracy at intensity 0 (None when 0 was not swept)."""
        for point in self.points:
            if point.intensity == 0.0:
                return point.accuracy
        return None

    @property
    def worst_accuracy(self) -> float:
        """Lowest accuracy across the sweep."""
        return min(p.accuracy for p in self.points)

    def accuracy_drop(self) -> float | None:
        """Baseline minus worst accuracy (None without a baseline)."""
        baseline = self.baseline_accuracy
        if baseline is None:
            return None
        return baseline - self.worst_accuracy

    def to_dict(self) -> dict:
        return {
            "protocol": "robustness",
            "faults": list(self.faults),
            "seed": self.seed,
            "baseline_accuracy": self.baseline_accuracy,
            "worst_accuracy": self.worst_accuracy,
            "accuracy_drop": self.accuracy_drop(),
            "points": [p.to_dict() for p in self.points],
        }


def _faulted_corpus(corpus: GestureCorpus,
                    schedule: FaultSchedule) -> tuple[GestureCorpus, int, int]:
    """The corpus under *schedule*, plus (injected, dropped) totals."""
    if not schedule.active:
        # true passthrough: same sample objects, same cached signals, and
        # the fault RNG streams are never even derived
        return corpus, 0, 0
    samples = []
    n_injected = 0
    n_dropped = 0
    for i, sample in enumerate(corpus):
        injection = schedule.inject(sample.recording, i)
        n_injected += len(injection.events)
        n_dropped += sample.recording.n_samples - injection.recording.n_samples
        samples.append(replace(sample, recording=injection.recording))
    return (GestureCorpus(samples=samples, config=corpus.config),
            n_injected, n_dropped)


def _stream_health(corpus: GestureCorpus, schedule: FaultSchedule,
                   stream_samples: int,
                   block_size: int | None = None) -> tuple[int, int, int]:
    """Replay faulted streams through the live engine; count what happened.

    Returns ``(stream_gaps, mask_transitions, segments)``.  The engine
    must never raise here — that contract is pinned separately by the
    fault property tests.  Replay batches frames through
    :meth:`AirFinger.feed_block` (``block_size=None`` picks the offline
    default) — bit-identical events to frame-by-frame streaming
    (``block_size=1``).
    """
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    gaps = 0
    masks = 0
    segments = 0
    for i, sample in enumerate(corpus):
        if i >= stream_samples:
            break
        engine = AirFinger(config=corpus.config)
        events = engine.feed_frames(schedule.stream(sample.recording, i),
                                    block_size=block_size)
        gaps += sum(isinstance(e, StreamGap) for e in events)
        masks += sum(isinstance(e, ChannelMaskEvent) for e in events)
        segments += sum(isinstance(e, SegmentEvent) for e in events)
    return gaps, masks, segments


def robustness_sweep(corpus: GestureCorpus,
                     schedule: FaultSchedule,
                     intensities: Sequence[float] = DEFAULT_INTENSITIES,
                     X: np.ndarray | None = None,
                     extractor: FeatureExtractor | None = None,
                     model_factory: Callable = default_model_factory,
                     n_splits: int = 5,
                     random_state: int = 0,
                     stream_samples: int = 6,
                     block_size: int | None = None) -> RobustnessResult:
    """Sweep *schedule* over *intensities* and measure detect accuracy.

    Parameters
    ----------
    corpus:
        The clean corpus (never mutated; every intensity re-faults it
        from the originals).
    schedule:
        The fault composition to scale.  ``schedule.at(w)`` is applied at
        each grid point ``w``, so the schedule's own intensities act as
        per-model ceilings.
    intensities:
        Sweep grid; include 0.0 to get the clean control point.
    X:
        Optional precomputed clean feature matrix, used **only** for the
        intensity-0 point (faulted recordings need re-extraction).
    n_splits, random_state, model_factory, extractor:
        Forwarded to :func:`overall_detect_performance`, so the control
        point matches ``airfinger evaluate`` exactly.
    stream_samples:
        Faulted recordings replayed through the live engine per point for
        the stream-health columns (0 disables the replay).
    block_size:
        Frames per :meth:`AirFinger.feed_block` batch during the stream
        replays (``None`` picks the offline default, ``1`` replays frame
        by frame).  The event sequence — and therefore every
        stream-health column — is identical either way.
    """
    if not intensities:
        raise ValueError("need at least one intensity")
    registry = get_registry()
    tracer = get_tracer()
    result = RobustnessResult(
        faults=tuple(f"{m.name}@{m.intensity:g}" for m in schedule.faults),
        seed=schedule.seed)
    for intensity in intensities:
        scaled = schedule.at(float(intensity))
        with tracer.span("eval.robustness.point", intensity=float(intensity)):
            faulted, n_injected, n_dropped = _faulted_corpus(corpus, scaled)
            detect = overall_detect_performance(
                faulted,
                X=X if not scaled.active else None,
                extractor=extractor,
                model_factory=model_factory,
                n_splits=n_splits,
                random_state=random_state)
            if stream_samples > 0:
                gaps, masks, segments = _stream_health(
                    corpus, scaled, stream_samples, block_size=block_size)
            else:
                gaps = masks = segments = 0
        point = RobustnessPoint(
            intensity=float(intensity),
            accuracy=float(detect.accuracy),
            n_injected=n_injected,
            n_dropped=n_dropped,
            stream_gaps=gaps,
            stream_mask_transitions=masks,
            stream_segments=segments)
        result.points.append(point)
        result.detect_results[float(intensity)] = detect
        registry.counter("eval.robustness.points").inc()
    return result


def render_robustness_markdown(result: RobustnessResult) -> str:
    """The sweep as a markdown report (accuracy-vs-fault table)."""
    lines = [
        "# Robustness sweep",
        "",
        f"Faults: {', '.join(result.faults) or '(none)'}  ",
        f"Fault seed: {result.seed}",
        "",
        "| intensity | accuracy | injections | dropped frames "
        "| stream gaps | mask transitions | segments |",
        "|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for p in result.points:
        lines.append(
            f"| {p.intensity:g} | {p.accuracy:.4f} | {p.n_injected} "
            f"| {p.n_dropped} | {p.stream_gaps} "
            f"| {p.stream_mask_transitions} | {p.stream_segments} |")
    drop = result.accuracy_drop()
    if drop is not None:
        lines += [
            "",
            f"Baseline accuracy {result.baseline_accuracy:.4f}, worst "
            f"{result.worst_accuracy:.4f} (drop {drop:.4f}).",
        ]
    return "\n".join(lines) + "\n"
