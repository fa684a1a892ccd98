"""The golden dispatch set: every slice the engine routes, and its answers.

:mod:`tests.golden.stream_cases` freezes the events and
:mod:`tests.golden.classify_cases` the detector; this set freezes the
detect/track decision and ZEBRA underneath them.  ``dispatch_traces.json``
holds:

* ``cases`` — per golden stream case, the prefiltered RSS rows of every
  stream position the engine handed :meth:`GestureDispatcher.classify`
  or :meth:`ZebraTracker.track` (``rows``: ``[first_position,
  n_channels, float64 bytes]`` runs), and the engine's call log
  (``calls``: ``[call, when, track_open, pair]`` with ``when`` ``"live"``
  or ``"close"`` and ``track_open`` the engine's ``_live_track_open`` at
  the call);
* ``pairs`` — each distinct ``(positions, gate)`` input of that log with
  the float bits of its :class:`SweepStatistics`, its ``onset_times``,
  the rule label, the label of a depth-3 tree calibrated on the golden
  segments, and the :class:`TrackResult` ``repr``;
* ``adversarial`` — the same answers for the slices
  :func:`adversarial_slices` builds (0–5 rows, one and two channels,
  constant columns, NaN and ±inf, mixed ±0.0 within a column,
  denormals, argmax/argmin ties, 584 rows) at each of
  :data:`ADVERSARIAL_GATES`.

The call log is the one today's engine makes: 342 calls.  An earlier
engine re-classified the open segment even after its live track had
opened (63 more live ``classify`` calls that nothing read); every
answer for the calls both make is the same.

Regenerate with::

    PYTHONPATH=src python tests/golden/regenerate.py

but only when the dispatcher or ZEBRA is *meant* to change — the diff is
the review artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.config import AirFingerConfig
from repro.core.dispatcher import (
    GestureDispatcher,
    onset_times,
    sweep_statistics,
)
from repro.core.pipeline import AirFinger
from repro.core.zebra import ZebraTracker
from tests.golden.classify_cases import pack, unpack
from tests.golden.stream_cases import build_stream_cases

DISPATCH_TRACES_PATH = Path(__file__).parent / "dispatch_traces.json"
ADVERSARIAL_SEED = 1616
ADVERSARIAL_GATES = (0.0, 1.0, 40.0)


# ----------------------------------------------------------------------
# the answers for one input
# ----------------------------------------------------------------------
def stats_bits(stats) -> str:
    """The float64 bits of every :class:`SweepStatistics` field."""
    return pack([stats.centroid_lag_s, stats.early_fraction, stats.rho_zero,
                 stats.bipolarity, stats.lobe_spacing_s,
                 float(stats.lobe_order), stats.dominance])


def outcome(call) -> str:
    """``repr`` of ``call()``, or the type and message of what it raised."""
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - the failure is the answer
        return f"{type(exc).__name__}: {exc}"


def answers(rss, gate: float, tree: GestureDispatcher) -> dict:
    """Every recorded answer for one ``(slice, gate)`` input."""
    config = tree.config
    rule = GestureDispatcher(config)
    return {
        "stats": stats_bits(sweep_statistics(rss, config.sample_rate_hz)),
        "onsets": outcome(lambda: onset_times(
            rss, config.sample_rate_hz, gate,
            sbc_window=config.sbc_window_samples)),
        "rule": outcome(lambda: rule.classify(rss, gate)),
        "tree": outcome(lambda: tree.classify(rss, gate)),
        "track": outcome(lambda: ZebraTracker(config).track(rss, gate)),
    }


# ----------------------------------------------------------------------
# recording what the engine routes
# ----------------------------------------------------------------------
class _Recorder:
    """Wraps one engine's dispatcher, tracker and history slicing, and
    logs each ``classify``/``track`` input with the stream positions it
    covers."""

    def __init__(self, engine: AirFinger) -> None:
        self.engine = engine
        self.calls: list[tuple] = []
        self.rows: dict[int, np.ndarray] = {}
        self._when = "close"
        self._range = (0, 0)
        self._wrap_method("_slice_raw", self._slice_raw)
        self._wrap_method("_handle_segment", self._during("close"))
        self._wrap_method("_maybe_live_update", self._during("live"))
        dispatcher, tracker = engine._dispatcher, engine.tracker
        engine._dispatcher = _Proxy(dispatcher, "classify",
                                    self._logged("classify",
                                                 dispatcher.classify))
        engine.tracker = _Proxy(tracker, "track",
                                self._logged("track", tracker.track))

    def _wrap_method(self, name: str, wrapper) -> None:
        original = getattr(self.engine, name)
        setattr(self.engine, name, lambda *a, **k: wrapper(original, *a, **k))

    def _slice_raw(self, original, start, end):
        engine = self.engine
        offset = engine._history_offset()
        out = original(start, end)
        lo = max(start - offset, 0) + offset
        self._range = (lo, lo + len(out))
        return out

    def _during(self, when: str):
        def run(original, *args, **kwargs):
            outer, self._when = self._when, when
            try:
                return original(*args, **kwargs)
            finally:
                self._when = outer
        return run

    def _logged(self, call: str, fn):
        def logged(segment, gate):
            rss = np.asarray(getattr(segment, "rss", segment),
                             dtype=np.float64)
            lo, hi = self._range
            assert hi - lo == len(rss), "slice does not match its positions"
            for k in range(len(rss)):
                seen = self.rows.setdefault(lo + k, rss[k].copy())
                assert seen.tobytes() == rss[k].tobytes(), (
                    f"position {lo + k} changed between slices")
            self.calls.append((call, self._when,
                               bool(self.engine._live_track_open),
                               lo, hi, float(gate)))
            return fn(segment, gate)
        return logged


class _Proxy:
    """*target* with one method replaced."""

    def __init__(self, target, name: str, fn) -> None:
        self._target = target
        setattr(self, name, fn)

    def __getattr__(self, name):
        return getattr(self._target, name)


def record_case(frames, block_size: int = 1) -> tuple[list, dict, list]:
    """``(calls, rows, events)`` for one stream fed in *block_size*-frame
    ``feed_block`` calls (``1``: per-frame :meth:`AirFinger.feed`)."""
    engine = AirFinger()
    recorder = _Recorder(engine)
    events = []
    if block_size == 1:
        for frame in frames:
            events.extend(engine.feed(frame))
    else:
        for lo in range(0, len(frames), block_size):
            events.extend(engine.feed_block(frames[lo:lo + block_size]))
    events.extend(engine.flush())
    return recorder.calls, recorder.rows, [repr(e) for e in events]


def pack_rows(rows: dict[int, np.ndarray]) -> list:
    """Contiguous runs of recorded positions as ``[first, C, bytes]``."""
    runs: list = []
    for pos in sorted(rows):
        row = rows[pos]
        if (runs and runs[-1][0] + len(runs[-1][2]) == pos
                and len(runs[-1][2][0]) == len(row)):
            runs[-1][2].append(row)
        else:
            runs.append([pos, len(row), [row]])
    return [[first, width, pack(np.stack(block))]
            for first, width, block in runs]


def unpack_rows(runs: list) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    for first, width, text in runs:
        block = unpack(text).reshape(-1, width)
        for k, row in enumerate(block):
            out[first + k] = row
    return out


def slice_rows(rows: dict[int, np.ndarray], lo: int, hi: int) -> np.ndarray:
    """The ``(hi - lo, C)`` slice of recorded positions ``[lo, hi)``."""
    return np.array([rows[p] for p in range(lo, hi)], dtype=np.float64)


# ----------------------------------------------------------------------
# adversarial slices
# ----------------------------------------------------------------------
def _bell(n: int, centre: float, width: float, height: float = 80.0):
    t = np.arange(n)
    return height * np.exp(-0.5 * ((t - centre) / width) ** 2)


def _sweep(n: int, channels: int, rng, lag: float = 20.0) -> np.ndarray:
    cols = [150.0 + _bell(n, n * 0.3 + lag * c / max(channels - 1, 1),
                          n * 0.08 + 1.0) for c in range(channels)]
    return np.stack(cols, axis=1) + rng.normal(0.0, 0.3, (n, channels))


def adversarial_slices() -> dict[str, np.ndarray]:
    """Slices at the edges of every guard in the sweep and onset math."""
    rng = np.random.default_rng(ADVERSARIAL_SEED)
    out: dict[str, np.ndarray] = {}
    for n in range(6):
        out[f"rows_{n}"] = 150.0 + rng.normal(0.0, 30.0, (n, 5))
    out["one_channel"] = _sweep(40, 1, rng)
    out["two_channels"] = _sweep(40, 2, rng)
    out["sweep"] = _sweep(60, 5, rng)
    out["reverse_sweep"] = _sweep(60, 5, rng)[:, ::-1].copy()
    common = 150.0 + _bell(50, 20, 5) + _bell(50, 32, 5)
    out["common_mode"] = (np.stack([common * s for s in (1.0, .9, .8, .7, .6)],
                                   axis=1) + rng.normal(0.0, 0.2, (50, 5)))
    out["constant"] = np.full((40, 5), 3.25)
    flat_outer = _sweep(40, 5, rng)
    flat_outer[:, -1] = 150.0
    out["constant_outer_column"] = flat_outer
    partial = _sweep(50, 5, rng)
    partial[:, 1:] = 150.0 + rng.normal(0.0, 0.2, (50, 4))
    out["lone_outer_onset"] = partial
    noisy = _sweep(48, 5, rng)
    noisy[[3, 17, 40], 0] = np.nan
    noisy[[9, 30], 4] = np.inf
    noisy[[25, 33], 2] = -np.inf
    out["nan_inf"] = noisy
    all_nan = _sweep(30, 5, rng)
    all_nan[:, 0] = np.nan
    out["nan_column"] = all_nan
    inf_col = _sweep(30, 5, rng)
    inf_col[:, -1] = np.inf
    out["inf_column"] = inf_col
    out["huge"] = _sweep(40, 5, rng) * 1e300
    zeros = np.where(rng.random((40, 5)) < 0.5, 0.0, -0.0)
    out["signed_zeros"] = zeros
    spiked = np.where(rng.random((40, 5)) < 0.5, 0.0, -0.0)
    spiked[18:24, 0] = [1.0, 4.0, 9.0, 4.0, 1.0, 0.5]
    spiked[26:32, -1] = [1.0, 4.0, 9.0, 4.0, 1.0, 0.5]
    out["signed_zeros_lobes"] = spiked
    mixed = _sweep(40, 5, rng) - 150.0
    mixed[::4, 0] = -0.0
    mixed[1::4, 0] = 0.0
    mixed[::3, -1] = 0.0
    mixed[2::3, -1] = -0.0
    out["signed_zeros_mixed_in"] = mixed
    out["denormals"] = rng.integers(0, 50, (40, 5)) * 5e-324
    dmix = _sweep(40, 5, rng)
    dmix[::3] = 5e-324
    out["denormals_mixed"] = dmix
    out["heavy_ties"] = rng.integers(0, 3, (60, 5)).astype(np.float64)
    ties = np.full((40, 5), 10.0)
    ties[10:13, 0] = 20.0
    ties[25:28, 0] = 20.0
    ties[15:18, -1] = 20.0
    ties[30:33, -1] = 20.0
    out["argmax_argmin_ties"] = ties
    symmetric = np.full((41, 5), 5.0)
    symmetric[:, 0] += _bell(41, 20, 4)
    symmetric[:, -1] += _bell(41, 20, 4)
    out["symmetric_outer"] = symmetric
    out["long_584"] = _sweep(584, 5, rng, lag=120.0)
    return out


# ----------------------------------------------------------------------
# the committed traces
# ----------------------------------------------------------------------
def build_traces() -> dict:
    traces: dict = {"cases": {}, "pairs": []}
    pair_index: dict[tuple, int] = {}
    for name, frames in build_stream_cases():
        calls, rows, _ = record_case(frames)
        assert record_case(frames, block_size=10)[0] == calls, name
        log = []
        for call, when, track_open, lo, hi, gate in calls:
            key = (name, lo, hi, gate)
            if key not in pair_index:
                pair_index[key] = len(traces["pairs"])
                traces["pairs"].append(
                    {"case": name, "lo": lo, "hi": hi, "gate": gate})
            log.append([call, when, track_open, pair_index[key]])
        traces["cases"][name] = {"rows": pack_rows(rows), "calls": log}

    tree = golden_tree(traces)
    for entry, rss in zip(traces["pairs"], pair_slices(traces)):
        entry.update(answers(rss, entry["gate"], tree))
    traces["adversarial"] = {
        f"{name}@{gate!r}": {"gate": gate, **answers(rss, gate, tree)}
        for name, rss in adversarial_slices().items()
        for gate in ADVERSARIAL_GATES}
    return traces


def pair_slices(traces: dict) -> list[np.ndarray]:
    """The input slice of every pair of *traces*, in order."""
    rows = {name: unpack_rows(case["rows"])
            for name, case in traces["cases"].items()}
    return [slice_rows(rows[entry["case"]], entry["lo"], entry["hi"])
            for entry in traces["pairs"]]


def golden_tree(traces: dict) -> GestureDispatcher:
    """The golden tree: a depth-3 dispatcher calibrated on the
    segment-close slices of *traces*, each labelled by the rule."""
    rule = GestureDispatcher(AirFingerConfig())
    slices = pair_slices(traces)
    segments, labels = [], []
    for case in traces["cases"].values():
        for call, when, _, pair in case["calls"]:
            if call == "classify" and when == "close":
                segments.append(slices[pair])
                labels.append(rule.classify(slices[pair],
                                            traces["pairs"][pair]["gate"]))
    return GestureDispatcher(AirFingerConfig()).calibrate(segments, labels)


def load_traces() -> dict:
    with DISPATCH_TRACES_PATH.open() as fh:
        return json.load(fh)


def write_traces(payload: dict) -> None:
    with DISPATCH_TRACES_PATH.open("w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
