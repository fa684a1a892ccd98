"""Golden dispatch traces: the detect/track decision and ZEBRA, bit for bit.

``tests/golden/dispatch_traces.json`` (see :mod:`tests.golden.dispatch_cases`)
holds every ``(slice, gate)`` input the five golden streams hand
:meth:`GestureDispatcher.classify` and :meth:`ZebraTracker.track`, live
and at segment close, plus adversarial slices, each with its sweep
statistics bits, onsets, rule and tree labels and ``TrackResult``.

Two locks:

* **answers** — today's code gives the committed answers, whether each
  call gets a plain array or classify and track share one
  :class:`~repro.core.dispatcher.SweepSlice`, as the engine does;
* **live dispatch** — replayed at block sizes 1 and 10, the engine makes
  exactly the committed calls except the live ``classify`` calls made
  after its live track had opened, which nothing read: 235 live and 29
  segment-close classify calls instead of 298 and 29, no live classify
  while the live track is open, and the same events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AirFingerConfig
from repro.core.dispatcher import GestureDispatcher, SweepSlice
from repro.core.zebra import ZebraTracker
from tests.golden.dispatch_cases import (
    adversarial_slices,
    answers,
    golden_tree,
    load_traces,
    outcome,
    pair_slices,
    record_case,
    unpack_rows,
)
from tests.golden.stream_cases import (
    STREAM_CASES,
    build_stream_cases,
    load_committed_traces,
)

CONFIG = AirFingerConfig()


@pytest.fixture(scope="module")
def golden():
    return load_traces()


@pytest.fixture(scope="module")
def tree(golden):
    return golden_tree(golden)


@pytest.fixture(scope="module")
def streams():
    return dict(build_stream_cases())


def _adversarial(golden):
    slices = adversarial_slices()
    for key, entry in golden["adversarial"].items():
        yield key, slices[key.split("@")[0]], entry


def _calls(golden, call: str, when: str, track_open=None) -> int:
    return sum(c == call and w == when
               and (track_open is None or o == track_open)
               for case in golden["cases"].values()
               for c, w, o, _ in case["calls"])


class TestCoverage:
    def test_every_case_committed(self, golden):
        assert sorted(golden["cases"]) == sorted(c[0] for c in STREAM_CASES)

    def test_parent_call_log(self, golden):
        assert _calls(golden, "classify", "live") == 298
        assert _calls(golden, "classify", "live", track_open=True) == 63
        assert _calls(golden, "classify", "close") == 29
        assert _calls(golden, "track", "live") == 71
        assert _calls(golden, "track", "close") == 7

    def test_both_labels_and_every_track_branch(self, golden):
        entries = golden["pairs"] + list(golden["adversarial"].values())
        assert {e["rule"] for e in entries} >= {"'detect'", "'track'"}
        assert {e["tree"] for e in entries} >= {"'detect'", "'track'"}
        tracks = " ".join(e["track"] for e in entries)
        for fragment in ("direction=1,", "direction=-1,", "direction=0,",
                         "used_default_speed=True",
                         "used_default_speed=False", "ValueError"):
            assert fragment in tracks

    def test_adversarial_shapes(self):
        shapes = {rss.shape for rss in adversarial_slices().values()}
        assert {(n, 5) for n in range(6)} <= shapes
        assert {1, 2} <= {c for _, c in shapes}
        assert (584, 5) in shapes


class TestAnswers:
    def test_stream_pairs(self, golden, tree):
        for entry, rss in zip(golden["pairs"], pair_slices(golden)):
            got = answers(rss, entry["gate"], tree)
            assert got == {k: entry[k] for k in got}, (
                entry["case"], entry["lo"], entry["hi"])

    def test_adversarial_slices(self, golden, tree):
        with np.errstate(all="ignore"):
            for key, rss, entry in _adversarial(golden):
                got = answers(rss, entry["gate"], tree)
                assert got == {k: entry[k] for k in got}, key

    def test_classify_then_track_on_one_memo(self, golden, tree):
        rule = GestureDispatcher(CONFIG)
        tracker = ZebraTracker(CONFIG)
        inputs = [(e, rss) for e, rss in zip(golden["pairs"],
                                              pair_slices(golden))]
        inputs += [(e, rss) for _, rss, e in _adversarial(golden)]
        with np.errstate(all="ignore"):
            for entry, rss in inputs:
                gate = entry["gate"]
                for dispatcher, key in ((rule, "rule"), (tree, "tree")):
                    segment = SweepSlice(rss)
                    assert outcome(lambda: dispatcher.classify(
                        segment, gate)) == entry[key]
                    assert outcome(lambda: tracker.track(
                        segment, gate)) == entry["track"]


@pytest.mark.parametrize("block_size", [1, 10])
class TestLiveDispatch:
    def test_replays_parent_calls_without_unread_classify(
            self, golden, streams, block_size):
        committed_events = load_committed_traces()
        live = close = 0
        for name, case in golden["cases"].items():
            calls, rows, events = record_case(streams[name], block_size)
            assert events == committed_events[name], name
            expected = []
            for call, when, track_open, pair in case["calls"]:
                if call == "classify" and when == "live" and track_open:
                    continue
                entry = golden["pairs"][pair]
                expected.append((call, when, entry["lo"], entry["hi"],
                                 entry["gate"]))
            assert [(c, w, lo, hi, g) for c, w, _, lo, hi, g in calls] \
                == expected, name
            # (at segment close the flag is still set: that decision is
            # the final one and always runs)
            assert not any(c == "classify" and w == "live" and open_
                           for c, w, open_, *_ in calls), name
            committed_rows = unpack_rows(case["rows"])
            assert sorted(rows) == sorted(committed_rows), name
            for pos, row in rows.items():
                assert row.tobytes() == committed_rows[pos].tobytes()
            live += sum(c == "classify" and w == "live"
                        for c, w, *_ in calls)
            close += sum(c == "classify" and w == "close"
                         for c, w, *_ in calls)
        assert (live, close) == (235, 29)
