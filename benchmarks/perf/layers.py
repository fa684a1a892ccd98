"""Per-layer CPU attribution by wrapping the program's public functions.

:class:`LayerTrace` replaces each function named in :data:`LAYERS` with
a wrapper that reads the process CPU clock on entry and exit.  A layer's
*inclusive* time is the sum of its calls; its *self* time is inclusive
time minus the inclusive time of wrapped calls made inside it.  Self
times therefore add up, over all layers, to the CPU spent inside
outermost wrapped calls, and whatever the traced run burned outside
them is reported as unattributed.

The wrappers live only while the trace is installed — around the timed
loop of a traced repetition; end-to-end metrics always come from
untraced repetitions.
"""

from __future__ import annotations

import functools
import importlib
import time

#: layer -> public functions, as ``module[:Class]`` and attribute names.
#: Scalar (``push``) and block (``push_block``) entry points of a stage
#: count together: faulted streams send gap frames through the scalar
#: path inside ``feed_block``.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "protocol.decode": [("repro.serve.protocol:MessageDecoder", "feed"),
                        ("repro.serve.protocol", "decode_frames")],
    "protocol.encode": [("repro.serve.protocol", "events_message"),
                        ("repro.serve.protocol", "encode_message")],
    "session.enqueue": [("repro.serve.session:SessionManager", "enqueue")],
    "session.dispatch": [("repro.serve.session:SessionManager", "dispatch")],
    "pipeline.feed_block": [("repro.core.pipeline:AirFinger", "feed_block")],
    "calibration.guard": [("repro.core.calibration:ChannelGuard", "push"),
                          ("repro.core.calibration:ChannelGuard",
                           "push_block")],
    "sbc.prefilter": [("repro.core.sbc:StreamingMovingAverage", "push"),
                      ("repro.core.sbc:StreamingMovingAverage",
                       "push_block")],
    "sbc.sbc": [("repro.core.sbc:StreamingSbc", "push"),
                ("repro.core.sbc:StreamingSbc", "push_block")],
    "segmentation": [
        ("repro.core.segmentation:DynamicThresholdSegmenter", "push"),
        ("repro.core.segmentation:DynamicThresholdSegmenter", "push_block")],
    "dispatcher": [("repro.core.dispatcher:GestureDispatcher", "classify")],
    "zebra": [("repro.core.zebra:ZebraTracker", "track")],
    "detector": [("repro.core.detector:DetectAimedRecognizer",
                  "predict_one")],
    "features": [("repro.features.extractor:FeatureExtractor",
                  "extract_many")],
    "forest": [("repro.ml.forest:RandomForestClassifier", "predict_proba")],
    "obs.record": [("repro.obs.metrics:Counter", "inc"),
                   ("repro.obs.metrics:Gauge", "set"),
                   ("repro.obs.metrics:Histogram", "observe"),
                   ("repro.obs.metrics:Histogram", "observe_many"),
                   ("repro.obs.metrics:MetricsRegistry", "counter"),
                   ("repro.obs.metrics:MetricsRegistry", "gauge"),
                   ("repro.obs.metrics:MetricsRegistry", "histogram"),
                   ("repro.obs.metrics:MetricsRegistry", "timer")],
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class LayerTrace:
    """Inclusive/self CPU time and call counts per layer.

    ``wait_clock``, when set, is the clock the sessions' enqueue stamps
    are taken on; every ``SessionManager.dispatch`` then also records
    how long the oldest queued frame waited (``waits_s``).
    """

    def __init__(self, wait_clock=None) -> None:
        #: layer -> [calls, inclusive_s, self_s]
        self.totals: dict[str, list] = {
            layer: [0, 0.0, 0.0] for layer in LAYERS}
        self.waits_s: list[float] = []
        self.wait_clock = wait_clock
        self._stack = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn):
        clock = time.process_time
        stack = self._stack
        acc = self.totals[layer]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - inner
        return timed

    def _wrap_dispatch(self, fn):
        timed = self._wrap("session.dispatch", fn)
        waits = self.waits_s

        @functools.wraps(fn)
        def dispatch(manager, session):
            if self.wait_clock is not None and session.queue:
                waits.append(self.wait_clock() - session.queue[0][1])
            return timed(manager, session)
        return dispatch

    def install(self) -> "LayerTrace":
        for layer, targets in LAYERS.items():
            for path, name in targets:
                owner = _owner(path)
                original = owner.__dict__[name]
                if layer == "session.dispatch":
                    wrapped = self._wrap_dispatch(original)
                else:
                    wrapped = self._wrap(layer, original)
                self._saved.append((owner, name, original))
                setattr(owner, name, wrapped)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data copy of the totals (JSON-ready)."""
        return {"totals": {k: list(v) for k, v in self.totals.items()},
                "waits_s": list(self.waits_s)}


def merge(snapshots: list[dict]) -> dict:
    """Sum of several snapshot deltas."""
    totals = {layer: [0, 0.0, 0.0] for layer in LAYERS}
    waits: list[float] = []
    for snap in snapshots:
        for layer, values in snap["totals"].items():
            totals[layer] = [t + v for t, v in zip(totals[layer], values)]
        waits.extend(snap["waits_s"])
    return {"totals": totals, "waits_s": waits}


def _percentile_ms(values, q: float) -> float:
    """Nearest-rank *q*-th percentile in ms; 0 without samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
    return ordered[rank] * 1e3


def layer_metrics(trace: dict, *, frames: int, traced_cpu_s: float,
                  overhead_share: float, segments: int = 0,
                  useful: int = 0, encoded: int = 0, bytes_in: int = 0,
                  faults: float = 0.0, drops: float = 0.0) -> dict:
    """Every per-layer metric of one traced run.

    *trace* is a :func:`merge` of :meth:`LayerTrace.snapshot` payloads;
    *traced_cpu_s* the CPU of the same repetitions.  A layer the
    workload never reaches reports 0.  The CPU outside every wrapped
    layer — the harness's own glue — is ``unattributed_us_per_frame``.
    """
    totals = trace["totals"]

    def calls(layer):
        return totals[layer][0]

    def self_s(layer):
        return totals[layer][2]

    def per(value, n):
        return value / n if n else 0.0

    us = 1e6
    remainder = traced_cpu_s - sum(v[2] for v in totals.values())
    return {
        "protocol.decode_us_per_frame":
            per(self_s("protocol.decode"), frames) * us,
        "protocol.encode_us_per_event":
            per(self_s("protocol.encode"), encoded) * us,
        "protocol.bytes_per_frame": per(bytes_in, frames),
        "session.enqueue_us_per_frame":
            per(self_s("session.enqueue"), frames) * us,
        "session.dispatch_self_us_per_frame":
            per(self_s("session.dispatch"), frames) * us,
        "session.frames_per_dispatch":
            per(frames, calls("session.dispatch")),
        "session.queue_wait_p50_ms": _percentile_ms(trace["waits_s"], 50),
        "session.queue_wait_p99_ms": _percentile_ms(trace["waits_s"], 99),
        "session.backpressure_drops": drops,
        "pipeline.feed_block_self_us_per_frame":
            per(self_s("pipeline.feed_block"), frames) * us,
        "pipeline.feed_block_calls_per_kframe":
            per(calls("pipeline.feed_block") * 1e3, frames),
        "pipeline.faults_per_kframe": per(faults * 1e3, frames),
        "calibration.guard_us_per_frame":
            per(self_s("calibration.guard"), frames) * us,
        "sbc.prefilter_us_per_frame":
            per(self_s("sbc.prefilter"), frames) * us,
        "sbc.sbc_us_per_frame": per(self_s("sbc.sbc"), frames) * us,
        "segmentation.us_per_frame":
            per(self_s("segmentation"), frames) * us,
        "segmentation.segments_per_kframe": per(segments * 1e3, frames),
        "segmentation.useful_share": per(useful, segments),
        "dispatcher.classify_us_per_call":
            per(self_s("dispatcher"), calls("dispatcher")) * us,
        "dispatcher.calls_per_segment": per(calls("dispatcher"), segments),
        "zebra.track_us_per_call":
            per(self_s("zebra"), calls("zebra")) * us,
        "zebra.calls_per_segment": per(calls("zebra"), segments),
        "detector.self_us_per_segment":
            per(self_s("detector"), segments) * us,
        "features.extract_us_per_segment":
            per(self_s("features"), segments) * us,
        "forest.predict_us_per_segment":
            per(self_s("forest"), segments) * us,
        "obs.record_us_per_frame": per(self_s("obs.record"), frames) * us,
        "obs.record_calls_per_frame": per(calls("obs.record"), frames),
        "unattributed_us_per_frame": per(remainder, frames) * us,
        "trace_overhead_share": overhead_share,
    }


def event_counts(events) -> tuple[int, int]:
    """``(segments closed, segments that yielded a result)``.

    A segment yields a result when it produced an accepted gesture or a
    final scroll update.
    """
    from repro.core.events import GestureEvent, ScrollUpdate, SegmentEvent
    segments = useful = 0
    for event in events:
        kind = type(event)
        if kind is SegmentEvent:
            segments += 1
        elif kind is GestureEvent:
            useful += event.accepted
        elif kind is ScrollUpdate:
            useful += event.final
    return segments, useful
