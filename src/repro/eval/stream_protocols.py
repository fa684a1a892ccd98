"""End-to-end stream evaluation: the metric a deployed system lives by.

The per-segment protocols of :mod:`repro.eval.protocols` assume perfect
segmentation (each sample is one pre-cut gesture).  A deployed airFinger
sees a continuous RSS stream and must segment, dispatch, filter and
classify on-line; its user-facing error rate folds all four stages
together.  This module replays labelled streams through the live
:class:`~repro.core.pipeline.AirFinger` engine and scores events against
ground truth:

* a ground-truth gesture is **matched** when an emitted event overlaps it;
* a matched detect-aimed gesture is **correct** when the recognized label
  equals the truth; a matched track-aimed gesture when ZEBRA's direction
  matches;
* a ground-truth *non-gesture* (scratch/extend/reposition) is **correct**
  when no accepted decision covers it — the interference filter's job;
* accepted events overlapping no ground-truth gesture are **spurious**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


from repro.core.events import GestureEvent, ScrollUpdate, SegmentEvent
from repro.core.pipeline import AirFinger
from repro.datasets.corpus import GestureSample
from repro.hand.gestures import GESTURE_NAMES

__all__ = ["StreamScore", "evaluate_stream", "evaluate_streams"]


@dataclass
class StreamScore:
    """Aggregated end-to-end counters over one or more streams.

    ``detection_recall`` is the fraction of ground-truth gestures that
    produced any event; ``recognition_accuracy`` is the fraction whose
    event also carried the right label/direction; ``spurious_events``
    counts emissions with no ground-truth counterpart.
    """

    n_truth: int = 0
    n_detected: int = 0
    n_correct: int = 0
    spurious_events: int = 0
    per_gesture: dict = field(default_factory=dict)

    @property
    def detection_recall(self) -> float:
        """Ground-truth gestures that produced an event."""
        return self.n_detected / self.n_truth if self.n_truth else 0.0

    @property
    def recognition_accuracy(self) -> float:
        """Ground-truth gestures recognized correctly, end to end."""
        return self.n_correct / self.n_truth if self.n_truth else 0.0

    def merge(self, other: "StreamScore") -> "StreamScore":
        """Accumulate another score into this one."""
        self.n_truth += other.n_truth
        self.n_detected += other.n_detected
        self.n_correct += other.n_correct
        self.spurious_events += other.spurious_events
        for name, (hit, total) in other.per_gesture.items():
            old_hit, old_total = self.per_gesture.get(name, (0, 0))
            self.per_gesture[name] = (old_hit + hit, old_total + total)
        return self

    def per_gesture_accuracy(self) -> dict:
        """End-to-end accuracy per gesture name."""
        return {name: (hit / total if total else 0.0)
                for name, (hit, total) in sorted(self.per_gesture.items())}


def _overlap(a_start: int, a_end: int, b_start: int, b_end: int) -> int:
    return min(a_end, b_end) - max(a_start, b_start)


def evaluate_stream(engine: AirFinger,
                    stream: GestureSample,
                    min_overlap: float = 0.3,
                    block_size: int | None = None) -> StreamScore:
    """Score one labelled stream through *engine* (engine state is reset).

    Replay runs in ``DEFAULT_BLOCK_SIZE``-frame ``feed_block`` calls by
    default (the event sequence does not depend on the block size — the
    golden-trace and property suites pin that contract); pass
    ``block_size=1`` to replay frame by frame.
    """
    engine.reset()
    events = engine.feed_recording(stream.recording, block_size=block_size)
    truth = [(name, start, end)
             for name, start, end in stream.recording.meta["segments"]
             if name != "idle"]

    # collect decision events with their extents
    decisions: list[tuple[SegmentEvent, str]] = []
    for event in events:
        if isinstance(event, GestureEvent) and event.accepted:
            decisions.append((event.segment, event.label))
        elif isinstance(event, ScrollUpdate) and event.final:
            decisions.append((event.segment, event.direction_name))

    score = StreamScore()
    used: set[int] = set()
    for name, start, end in truth:
        is_gesture = name in GESTURE_NAMES
        hit_idx = None
        for i, (segment, _) in enumerate(decisions):
            if i in used:
                continue
            overlap = _overlap(start, end, segment.start_index,
                               segment.end_index)
            if overlap > min_overlap * (end - start):
                hit_idx = i
                break
        old_hit, old_total = score.per_gesture.get(name, (0, 0))
        if not is_gesture:
            # a non-gesture is handled correctly when no accepted decision
            # covers it (segmentation may still fire; the filter must veto)
            correct = hit_idx is None
            if hit_idx is not None:
                used.add(hit_idx)
            score.n_truth += 1
            score.n_detected += 1  # "handled" either way
            score.n_correct += int(correct)
            score.per_gesture[name] = (old_hit + int(correct), old_total + 1)
            continue
        score.n_truth += 1
        if hit_idx is None:
            score.per_gesture[name] = (old_hit, old_total + 1)
            continue
        used.add(hit_idx)
        score.n_detected += 1
        _, label = decisions[hit_idx]
        correct = label == name
        score.n_correct += int(correct)
        score.per_gesture[name] = (old_hit + int(correct), old_total + 1)
    score.spurious_events += len(decisions) - len(used)
    return score


def evaluate_streams(engine: AirFinger,
                     streams: Sequence[GestureSample],
                     min_overlap: float = 0.3,
                     block_size: int | None = None) -> StreamScore:
    """Score a batch of labelled streams; returns the merged counters."""
    if not streams:
        raise ValueError("need at least one stream")
    total = StreamScore()
    for stream in streams:
        total.merge(evaluate_stream(engine, stream, min_overlap,
                                    block_size=block_size))
    return total
