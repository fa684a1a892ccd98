"""The golden event-trace case set: streaming scenes, clean and faulted.

Where :mod:`tests.golden.cases` freezes the radiometric forward model,
this set freezes the *pipeline's event sequence*: each case is a
deterministic stream (a clean mixed-gesture capture, plus faulted
variants from :mod:`repro.faults` — frame-drop bursts, a dead photodiode,
ambient saturation, and a long-gap stress case) whose complete event
trace from :meth:`AirFinger.feed <repro.core.pipeline.AirFinger.feed>` is
committed to ``stream_traces.json``.

Two locks hang off it (``tests/integration/test_golden_stream_traces.py``):

* **regression** — per-frame :meth:`AirFinger.feed
  <repro.core.pipeline.AirFinger.feed>`, and the parent's per-frame
  engine kept in :mod:`tests.golden.stream_reference`, must keep
  reproducing the committed traces exactly (``repr`` round-trips every
  float bit);
* **equivalence** — :meth:`AirFinger.feed_block
  <repro.core.pipeline.AirFinger.feed_block>` must reproduce the same
  traces for every block grouping.

Regenerate the committed file with::

    PYTHONPATH=src python tests/golden/regenerate.py

but only when the pipeline behavior is *meant* to change — the diff is
the review artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.pipeline import AirFinger
from repro.datasets.generator import CampaignConfig, CampaignGenerator
from repro.faults import (
    ChannelDropoutFault,
    FaultSchedule,
    FrameDropFault,
    SaturationFault,
)

STREAM_SEED = 417
STREAM_TRACES_PATH = Path(__file__).parent / "stream_traces.json"

# (name, user, gesture sequence, idle_s, fault schedule or None); faulted
# cases reuse clean captures so the trace diff isolates the fault's effect.
STREAM_CASES: list[tuple[str, int, list[str], float, FaultSchedule | None]] = [
    ("clean_mixed", 0, ["circle", "scroll_up", "click"], 0.8, None),
    ("frame_drop", 1, ["click", "rub"], 0.7, FaultSchedule(
        faults=(FrameDropFault(intensity=0.9),), seed=11)),
    ("channel_dropout", 2, ["double_click", "circle"], 0.7, FaultSchedule(
        faults=(ChannelDropoutFault(intensity=0.9, channel=1),), seed=12)),
    ("saturation", 0, ["scroll_down", "click"], 0.7, FaultSchedule(
        faults=(SaturationFault(intensity=0.9),), seed=13)),
    ("long_gap", 1, ["rub", "scroll_up"], 0.9, FaultSchedule(
        faults=(FrameDropFault(intensity=1.0, drop_rate=0.004,
                               mean_burst=60.0),), seed=14)),
]


def build_stream_cases() -> list[tuple[str, list]]:
    """``(name, frames)`` for every golden stream case, rebuilt bit-for-bit.

    Frames come from :meth:`FaultSchedule.stream`, so dropped frames show
    up as index jumps — the same shape the acquisition layer hands the
    pipeline.
    """
    config = CampaignConfig(n_users=3, n_sessions=1, repetitions=1,
                            seed=STREAM_SEED)
    generator = CampaignGenerator(config=config)
    cases = []
    for name, user, sequence, idle_s, schedule in STREAM_CASES:
        recording = generator.stream(
            user, sequence, idle_s=idle_s, lead_in_s=1.0).recording
        if schedule is None:
            schedule = FaultSchedule(faults=())
        cases.append((name, list(schedule.stream(recording, name))))
    return cases


def trace_events(frames, block_size: int | None = None) -> list[str]:
    """The full event trace for *frames* as exact ``repr`` lines.

    ``repr`` is the serialization: every event is a flat dataclass of
    ints/floats/strings, and ``repr(float)`` is shortest-round-trip, so
    comparing lines compares bits.
    """
    engine = AirFinger()
    events = []
    if block_size is None:
        for frame in frames:
            events.extend(engine.feed(frame))
    else:
        # explicit feed_block calls: block_size=1 means one-frame blocks
        for lo in range(0, len(frames), block_size):
            events.extend(engine.feed_block(frames[lo:lo + block_size]))
    events.extend(engine.flush())
    return [repr(event) for event in events]


def load_committed_traces() -> dict[str, list[str]]:
    """The committed ``stream_traces.json`` as ``{case: [repr, ...]}``."""
    with STREAM_TRACES_PATH.open() as fh:
        return json.load(fh)


def write_traces(traces: dict[str, list[str]]) -> None:
    with STREAM_TRACES_PATH.open("w") as fh:
        json.dump(traces, fh, indent=1)
        fh.write("\n")
