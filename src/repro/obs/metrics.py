"""Dependency-free metrics primitives: counters, gauges, histograms, timers.

Everything here is stdlib-only on purpose — the instrumentation rides the
hot paths (the 100 Hz streaming engine, batched campaign capture), crosses
process boundaries as pickled snapshots, and must never perturb the
bit-exact determinism contract of the generators.  Values are recorded
through a :class:`MetricsRegistry`; a registry's :meth:`~MetricsRegistry.snapshot`
is a plain-data :class:`MetricsSnapshot` that can be merged, serialized to
JSON, or rendered to Prometheus text format (:mod:`repro.obs.export`).

Design notes
------------
* A metric's identity is its name plus a sorted tuple of label pairs, so
  ``registry.counter("pipeline.events", type="gesture")`` and
  ``type="scroll_final"`` are distinct series.
* Histograms use **fixed** bucket upper bounds.  Quantiles (p50/p95/p99)
  are estimated by linear interpolation inside the bucket holding the
  target rank, clamped to the observed min/max — the standard
  fixed-bucket estimator, accurate to bucket resolution.
* Disabling a registry (``enabled = False`` or ``REPRO_OBS=0``) turns
  every record operation into a flag check and nothing else.
* Recording is **thread-safe**: every metric guards its read-modify-write
  updates with a per-metric lock, and the registry guards series
  creation, ``snapshot`` and ``merge`` with its own lock — the threaded/
  async serving layer (:mod:`repro.serve`) increments shared series from
  concurrent contexts and may not lose updates.  An uncontended lock
  acquisition is tens of nanoseconds, which keeps the <5% overhead gate
  (``benchmarks/test_obs_overhead.py``) intact.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "StageTimer",
    "MetricsRegistry",
    "MetricsSnapshot",
    "get_registry",
    "parse_series_key",
    "set_registry",
]

#: Default latency buckets (seconds): 1 µs .. 10 s, roughly logarithmic.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _series_key(name: str, labels: dict[str, str]) -> str:
    """Canonical series key: ``name`` or ``name{k="v",...}`` (sorted).

    Label values are escaped at key-build time, so the key doubles as the
    Prometheus series suffix and parses unambiguously at the first ``{``.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{escape_label_value(v)}"'
                     for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def parse_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Split a series key back into ``(name, labels)``.

    The inverse of the key builder: ``name{k="v",...}`` keys produced by
    the registry parse losslessly (label values are unescaped), and keys
    without labels return an empty dict.  The telemetry plane uses this
    to group ``serve.*`` series per tenant/session without the registry
    having to keep a parallel label index.
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed series key {key!r}")
    name = key[:brace]
    inner = key[brace + 1:-1]
    labels: dict[str, str] = {}
    i = 0
    while i < len(inner):
        eq = inner.find('="', i)
        if eq < 0:
            raise ValueError(f"malformed series key {key!r}")
        label = inner[i:eq]
        # scan for the closing quote, honouring backslash escapes
        j = eq + 2
        out: list[str] = []
        while j < len(inner):
            ch = inner[j]
            if ch == "\\" and j + 1 < len(inner):
                nxt = inner[j + 1]
                out.append("\n" if nxt == "n" else nxt)
                j += 2
                continue
            if ch == '"':
                break
            out.append(ch)
            j += 1
        else:
            raise ValueError(f"malformed series key {key!r}")
        labels[label] = "".join(out)
        i = j + 1
        if i < len(inner) and inner[i] == ",":
            i += 1
    return name, labels


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("_registry", "_lock", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        # `self.value += amount` is a read-modify-write; without the lock
        # two threads interleaving it lose one of the increments
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (e.g. last batch size); thread-safe."""

    __slots__ = ("_registry", "_lock", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to *value*."""
        if self._registry.enabled:
            with self._lock:
                self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (may be negative)."""
        if self._registry.enabled:
            with self._lock:
                self.value += amount


class Histogram:
    """Fixed-bucket distribution of observations (latencies, sizes).

    ``bounds`` are the inclusive upper edges of the buckets; one implicit
    overflow bucket catches everything above the last bound.  NaN/inf
    observations are dropped (they would poison ``sum`` and the min/max
    comparisons) and tallied in :attr:`invalid` instead.
    """

    __slots__ = ("_registry", "_lock", "bounds", "counts", "sum", "count",
                 "min", "max", "invalid")

    def __init__(self, registry: "MetricsRegistry",
                 bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self._registry = registry
        self._lock = threading.Lock()
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)   # +1: overflow bucket
        self.sum = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None
        self.invalid = 0

    def observe(self, value: float) -> None:
        """Record one observation (NaN/inf counts as invalid, not data)."""
        self._add(value, 1)

    def observe_many(self, value: float, n: int) -> None:
        """Record *n* observations of the same *value* in O(1).

        The block-mode pipeline amortizes one wall-clock measurement over
        every frame of a block; tallying the per-frame average *n* times
        keeps ``count`` (and rate math downstream) comparable with the
        per-frame path without paying *n* bucket scans.
        """
        if n > 0:
            self._add(value, n)

    def _add(self, value: float, n: int) -> None:
        """Record *n* observations of *value* (for one, ``value * 1`` is
        exact)."""
        if not self._registry.enabled:
            return
        value = float(value)
        if not math.isfinite(value):
            with self._lock:
                self.invalid += n
            return
        # linear scan is faster than bisect for the small head buckets the
        # hot paths hit; fall through to the overflow slot
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self.counts[idx] += n
            self.sum += value * n
            self.count += n
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def quantile(self, q: float) -> float | None:
        """Estimated *q*-quantile (0..1), or None with no observations."""
        return _bucket_quantile(self.bounds, self.counts, self.count,
                                self.min, self.max, q)

    @property
    def p50(self) -> float | None:
        """Estimated median."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float | None:
        """Estimated 95th percentile."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float | None:
        """Estimated 99th percentile."""
        return self.quantile(0.99)


def _bucket_quantile(bounds: tuple[float, ...], counts: list[int],
                     count: int, lo: float | None, hi: float | None,
                     q: float) -> float | None:
    """Fixed-bucket quantile estimate shared by Histogram and snapshots."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count == 0 or lo is None or hi is None:
        return None
    rank = q * count
    cumulative = 0.0
    for i, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        prev_cumulative = cumulative
        cumulative += bucket_count
        if cumulative < rank:
            continue
        lower = bounds[i - 1] if i > 0 else 0.0
        upper = bounds[i] if i < len(bounds) else hi
        fraction = (rank - prev_cumulative) / bucket_count
        estimate = lower + fraction * (upper - lower)
        return min(max(estimate, lo), hi)
    return hi


class StageTimer:
    """Context manager timing one stage into a latency histogram.

    ::

        with registry.timer("pipeline.stage_seconds", stage="tracking") as t:
            result = tracker.track(rss, gate)
        t.elapsed_s  # the measured wall time
    """

    __slots__ = ("_histogram", "_start", "elapsed_s")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0
        self.elapsed_s = 0.0

    def __enter__(self) -> "StageTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed_s = time.perf_counter() - self._start
        self._histogram.observe(self.elapsed_s)


@dataclass
class MetricsSnapshot:
    """Plain-data view of a registry at one point in time.

    Every field holds only builtins, so snapshots pickle across process
    boundaries (worker pools ship them back to the parent) and serialize
    to JSON.  Histogram entries are dicts with keys ``bounds``, ``counts``,
    ``sum``, ``count``, ``min``, ``max``, ``invalid``.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """A new snapshot combining this one with *other* (additive)."""
        out = MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={k: dict(v) for k, v in self.histograms.items()})
        for key, value in other.counters.items():
            out.counters[key] = out.counters.get(key, 0.0) + value
        out.gauges.update(other.gauges)   # last writer wins for gauges
        for key, data in other.histograms.items():
            mine = out.histograms.get(key)
            if mine is None:
                out.histograms[key] = dict(data)
                continue
            if tuple(mine["bounds"]) != tuple(data["bounds"]):
                raise ValueError(
                    f"cannot merge histogram {key!r}: bucket bounds differ "
                    f"({tuple(mine['bounds'])} vs {tuple(data['bounds'])})")
            merged = dict(mine)
            merged["counts"] = [a + b for a, b in
                                zip(mine["counts"], data["counts"])]
            merged["sum"] = mine["sum"] + data["sum"]
            merged["count"] = mine["count"] + data["count"]
            merged["min"] = _opt_min(mine["min"], data["min"])
            merged["max"] = _opt_max(mine["max"], data["max"])
            merged["invalid"] = (mine.get("invalid", 0)
                                 + data.get("invalid", 0))
            out.histograms[key] = merged
        return out

    def quantile(self, key: str, q: float) -> float | None:
        """Estimated quantile of histogram series *key*."""
        data = self.histograms[key]
        return _bucket_quantile(tuple(data["bounds"]), data["counts"],
                                data["count"], data["min"], data["max"], q)

    def to_dict(self) -> dict:
        """JSON-ready dict; histograms carry computed p50/p95/p99."""
        histograms = {}
        for key, data in self.histograms.items():
            entry = dict(data)
            entry["p50"] = self.quantile(key, 0.50)
            entry["p95"] = self.quantile(key, 0.95)
            entry["p99"] = self.quantile(key, 0.99)
            histograms[key] = entry
        return {"counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": histograms}

    def to_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format."""
        from repro.obs.export import prometheus_text
        return prometheus_text(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output."""
        histograms = {}
        for key, data in payload.get("histograms", {}).items():
            histograms[key] = {
                "bounds": [float(b) for b in data["bounds"]],
                "counts": [int(c) for c in data["counts"]],
                "sum": float(data["sum"]),
                "count": int(data["count"]),
                "min": data["min"],
                "max": data["max"],
                "invalid": int(data.get("invalid", 0))}
        return cls(counters=dict(payload.get("counters", {})),
                   gauges=dict(payload.get("gauges", {})),
                   histograms=histograms)

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        """Rebuild a snapshot from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def _opt_min(a: float | None, b: float | None) -> float | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _opt_max(a: float | None, b: float | None) -> float | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


class MetricsRegistry:
    """Get-or-create home of every metric series in one process.

    ``counter`` / ``gauge`` / ``histogram`` return the live metric object
    for (name, labels) — hot paths cache the handle once and hit only the
    record call per event.  ``snapshot()`` freezes the state into a
    picklable :class:`MetricsSnapshot`; ``merge(snapshot)`` folds a
    worker's snapshot into this registry.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        """The counter series (name, labels), created on first use."""
        key = _series_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            # two racing creators must resolve to ONE live object, or the
            # loser's cached handle records into a dropped metric
            with self._lock:
                metric = self._counters.get(key)
                if metric is None:
                    metric = self._counters[key] = Counter(self)
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge series (name, labels), created on first use."""
        key = _series_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.get(key)
                if metric is None:
                    metric = self._gauges[key] = Gauge(self)
        return metric

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
                  **labels: str) -> Histogram:
        """The histogram series (name, labels), created on first use."""
        key = _series_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            with self._lock:
                metric = self._histograms.get(key)
                if metric is None:
                    metric = self._histograms[key] = Histogram(self, buckets)
        return metric

    def timer(self, name: str,
              buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
              **labels: str) -> StageTimer:
        """A :class:`StageTimer` bound to the named latency histogram."""
        return StageTimer(self.histogram(name, buckets, **labels))

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current state into a picklable snapshot.

        Thread-safe: each histogram's fields are copied under that
        histogram's lock, so a snapshot taken mid-`observe` never sees a
        half-applied observation (a count without its sum).
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        hist_data: dict[str, dict] = {}
        for k, h in histograms.items():
            with h._lock:
                hist_data[k] = {"bounds": list(h.bounds),
                                "counts": list(h.counts),
                                "sum": h.sum,
                                "count": h.count,
                                "min": h.min,
                                "max": h.max,
                                "invalid": h.invalid}
        return MetricsSnapshot(
            counters={k: c.value for k, c in counters.items()},
            gauges={k: g.value for k, g in gauges.items()},
            histograms=hist_data)

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold *snapshot* (e.g. from a worker process) into this registry."""
        for key, value in snapshot.counters.items():
            metric = self._counters.get(key)
            if metric is None:
                with self._lock:
                    metric = self._counters.setdefault(key, Counter(self))
            with metric._lock:
                metric.value += value
        for key, value in snapshot.gauges.items():
            gauge = self._gauges.get(key)
            if gauge is None:
                with self._lock:
                    gauge = self._gauges.setdefault(key, Gauge(self))
            with gauge._lock:
                gauge.value = value
        for key, data in snapshot.histograms.items():
            hist = self._histograms.get(key)
            if hist is None:
                with self._lock:
                    hist = self._histograms.setdefault(
                        key, Histogram(self, tuple(data["bounds"])))
            if hist.bounds != tuple(data["bounds"]):
                raise ValueError(
                    f"cannot merge histogram {key!r}: bucket bounds differ "
                    f"({hist.bounds} vs {tuple(data['bounds'])})")
            with hist._lock:
                hist.counts = [a + b
                               for a, b in zip(hist.counts, data["counts"])]
                hist.sum += data["sum"]
                hist.count += data["count"]
                hist.min = _opt_min(hist.min, data["min"])
                hist.max = _opt_max(hist.max, data["max"])
                hist.invalid += int(data.get("invalid", 0))

    def remove(self, name: str, **labels: str) -> bool:
        """Retire the series (name, labels) from every metric family.

        Label cardinality control: a serving layer that mints per-session
        series (``serve.queue_depth{tenant=,session=}``) retires them
        when the session closes, so snapshot size tracks the number of
        *live* sessions instead of every session ever opened.  Returns
        ``True`` if any series was removed.  A handle obtained before the
        removal stays safe to record into — it just no longer appears in
        snapshots (and re-creating the series yields a fresh object, so
        retire only series whose handles die with their owner).
        """
        key = _series_key(name, labels)
        with self._lock:
            removed = False
            for family in (self._counters, self._gauges, self._histograms):
                if family.pop(key, None) is not None:
                    removed = True
        return removed

    def series_count(self) -> int:
        """Total number of registered series across every family."""
        with self._lock:
            return (len(self._counters) + len(self._gauges)
                    + len(self._histograms))

    def reset(self) -> None:
        """Drop every recorded value (series registrations included)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ---------------------------------------------------------------------------
# process-global default registry (REPRO_OBS=0 disables instrumentation)
# ---------------------------------------------------------------------------

_GLOBAL_REGISTRY = MetricsRegistry(
    enabled=os.environ.get("REPRO_OBS", "1") != "0")


def get_registry() -> MetricsRegistry:
    """The process-global default registry every component records to."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry (returns the previous one)."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous
