"""Continuous profiling: background stack sampling + exact stage attribution.

Two complementary profilers, both stdlib-only (the same constraint as the
rest of :mod:`repro.obs` — they ride the 100 Hz hot paths and cross process
boundaries as plain dicts):

* :class:`SamplingProfiler` — a statistical wall-clock profiler.  A
  daemon thread wakes at a configurable rate, walks every live thread's
  stack via :func:`sys._current_frames` (no signals, no
  ``sys.setprofile`` — nothing is installed into the profiled code, so
  the observed program runs at full speed between samples), and folds
  each stack into a bounded table of collapsed-stack counts.  Memory is
  bounded twice over: stacks are truncated at ``max_depth`` frames and
  the table holds at most ``max_stacks`` unique stacks (overflow lands in
  a single ``<overflow>`` bucket so sample counts stay exact).  Output is
  flamegraph.pl-compatible collapsed text, Chrome/Perfetto JSON, or a
  mergeable plain dict.
* :class:`StageProfile` — a deterministic accumulator of **exclusive
  (self) time** per pipeline stage.  It is fed by the stage measurements
  the pipeline already takes (``AirFinger._stage_s``, the campaign
  generator's batch timers, ``repro.serve`` dispatch scopes), so its
  attribution is exact rather than statistical: a stage's ``self_s`` is
  its measured duration minus the measured durations of its nested
  stages, never an estimate.  Profiles pickle as plain dicts and merge
  associatively — parallel campaign workers ship their profile back
  beside their :class:`~repro.obs.metrics.MetricsSnapshot` delta and the
  parent merges them exactly like metric snapshots.

Hot paths reach the active profile through :func:`get_stage_profile`,
a single module-global read returning ``None`` when profiling is off —
the disabled cost is one attribute load and one ``is None`` branch per
frame/block, which is what lets ``benchmarks/test_prof_overhead.py``
hold the strict zero-overhead-when-disabled gate.

Stage paths are tuples of names (``("serve.dispatch", "pipeline.block",
"segmentation")``); exporters join them with ``;`` in flamegraph
convention, so stage names must not contain ``;`` (enforced at record
time).
"""

from __future__ import annotations

import json
import os.path
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "PROFILE_SCHEMA",
    "SamplingProfiler",
    "StageProfile",
    "StageStat",
    "get_stage_profile",
    "set_stage_profile",
    "stage_profiling",
    "render_stage_profile",
]

PROFILE_SCHEMA = 1

_PATH_SEP = ";"


def _check_name(name: str) -> str:
    if not name or _PATH_SEP in name:
        raise ValueError(
            f"stage name must be non-empty and must not contain {_PATH_SEP!r}: "
            f"{name!r}"
        )
    return name


# ---------------------------------------------------------------------------
# StageProfile: deterministic exclusive-time attribution
# ---------------------------------------------------------------------------


@dataclass
class StageStat:
    """Accumulated times for one stage *path* (root..leaf tuple of names).

    ``count`` counts invocations for scoped stages and frames for the
    pipeline's per-frame/per-block entries; ``total_s`` is inclusive wall
    time, ``self_s`` is exclusive (total minus nested stages, clamped at
    zero so clock jitter can never produce negative attribution).
    """

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def to_dict(self) -> dict:
        return {"count": self.count, "total_s": self.total_s, "self_s": self.self_s}


class StageProfile:
    """Thread-safe, mergeable exclusive-time accumulator.

    Three recording surfaces, all nestable (a thread-local scope stack
    tracks the current path, and every nested duration is charged against
    the parent's exclusive time):

    * :meth:`scope` — a context manager timing a region with the
      profile's own clock (injectable for deterministic tests).
    * :meth:`add` — record an externally measured duration as a child of
      the current scope (used where the pipeline already holds a
      :class:`~repro.obs.metrics.StageTimer` measurement).
    * :meth:`add_frame` — the pipeline fast path: one call per
      frame/block records the root duration plus a dict of per-stage
      durations, attributing ``total - sum(stages)`` to the root's
      exclusive time.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._stats: dict[tuple[str, ...], StageStat] = {}
        self._local = threading.local()

    # -- internals ----------------------------------------------------

    def _frames(self) -> list:
        # Each entry is [name, child_s]; the path is the names joined.
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _path(self, stack: list, leaf: str) -> tuple[str, ...]:
        return tuple(entry[0] for entry in stack) + (leaf,)

    def _bump(
        self, path: tuple[str, ...], count: int, total_s: float, self_s: float
    ) -> None:
        with self._lock:
            stat = self._stats.get(path)
            if stat is None:
                stat = self._stats[path] = StageStat()
            stat.count += count
            stat.total_s += total_s
            stat.self_s += self_s

    # -- recording ----------------------------------------------------

    @contextmanager
    def scope(self, name: str):
        """Time a region; nested scopes/adds reduce its exclusive time."""
        _check_name(name)
        stack = self._frames()
        entry = [name, 0.0]
        stack.append(entry)
        start = self._clock()
        try:
            yield self
        finally:
            elapsed = self._clock() - start
            stack.pop()
            self._bump(
                self._path(stack, name), 1, elapsed, max(elapsed - entry[1], 0.0)
            )
            if stack:
                stack[-1][1] += elapsed

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Record a pre-measured duration under the current scope."""
        _check_name(name)
        seconds = max(float(seconds), 0.0)
        stack = self._frames()
        self._bump(self._path(stack, name), count, seconds, seconds)
        if stack:
            stack[-1][1] += seconds

    def add_frame(
        self,
        root: str,
        total_s: float,
        stages: dict[str, float],
        frames: int = 1,
    ) -> None:
        """Record one pipeline frame/block: root total + per-stage splits.

        The root's exclusive time is ``total_s`` minus the stage sum
        (clamped at zero); each stage is a leaf child of the root.
        ``frames`` scales the invocation count (block mode records one
        call covering many frames).
        """
        _check_name(root)
        total_s = max(float(total_s), 0.0)
        stack = self._frames()
        base = self._path(stack, root)
        stage_sum = 0.0
        for stage, seconds in stages.items():
            _check_name(stage)
            seconds = max(float(seconds), 0.0)
            stage_sum += seconds
            self._bump(base + (stage,), frames, seconds, seconds)
        self._bump(base, frames, total_s, max(total_s - stage_sum, 0.0))
        if stack:
            stack[-1][1] += total_s

    # -- aggregation --------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._stats)

    def stats(self) -> dict[tuple[str, ...], StageStat]:
        """A point-in-time copy of the accumulated table."""
        with self._lock:
            return {
                path: StageStat(s.count, s.total_s, s.self_s)
                for path, s in self._stats.items()
            }

    def total_self_s(self) -> float:
        with self._lock:
            return sum(s.self_s for s in self._stats.values())

    def merge(self, other: "StageProfile | dict") -> "StageProfile":
        """Fold another profile (or its :meth:`to_dict`) into this one.

        Addition of counts/times per path — associative and commutative,
        the same contract as :meth:`MetricsSnapshot.merged`, so parallel
        worker profiles can be folded in any order.
        """
        if isinstance(other, StageProfile):
            items = other.stats().items()
        else:
            if other.get("schema") != PROFILE_SCHEMA:
                raise ValueError(
                    f"unsupported stage-profile schema: {other.get('schema')!r}"
                )
            items = [
                (tuple(key.split(_PATH_SEP)), StageStat(**stat))
                for key, stat in other["stages"].items()
            ]
        for path, stat in items:
            self._bump(path, stat.count, stat.total_s, stat.self_s)
        return self

    # -- exporters ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "stages": {
                _PATH_SEP.join(path): stat.to_dict()
                for path, stat in sorted(self.stats().items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StageProfile":
        return cls().merge(payload)

    def collapsed(self) -> str:
        """flamegraph.pl-compatible collapsed stacks, weight = self µs."""
        lines = []
        for path, stat in sorted(self.stats().items()):
            weight = int(round(stat.self_s * 1e6))
            if weight > 0:
                lines.append(f"{_PATH_SEP.join(path)} {weight}")
        return "\n".join(lines)

    def chrome_events(self) -> list[dict]:
        """Complete ("X") events, one per stage path, sized by self time.

        The profile stores aggregates rather than a timeline, so events
        are laid out sequentially per depth — a duration-accurate (not
        time-accurate) flame view loadable in chrome://tracing/Perfetto.
        """
        events: list[dict] = []
        cursor: dict[tuple[str, ...], float] = {}
        for path, stat in sorted(self.stats().items()):
            parent = path[:-1]
            start = cursor.get(parent, 0.0)
            events.append(
                {
                    "name": path[-1],
                    "ph": "X",
                    "pid": 0,
                    "tid": len(path) - 1,
                    "ts": start * 1e6,
                    "dur": stat.total_s * 1e6,
                    "args": {
                        "path": _PATH_SEP.join(path),
                        "count": stat.count,
                        "self_s": stat.self_s,
                    },
                }
            )
            cursor[parent] = start + stat.total_s
            cursor.setdefault(path, start)
        return events


# ---------------------------------------------------------------------------
# Module-global active profile (the pipeline's single-read hook)
# ---------------------------------------------------------------------------

_STAGE_PROFILE: StageProfile | None = None


def get_stage_profile() -> StageProfile | None:
    """The process-wide active profile, or ``None`` when profiling is off."""
    return _STAGE_PROFILE


def set_stage_profile(profile: StageProfile | None) -> StageProfile | None:
    """Install ``profile`` as the active profile; returns the previous one."""
    global _STAGE_PROFILE
    previous = _STAGE_PROFILE
    _STAGE_PROFILE = profile
    return previous


@contextmanager
def stage_profiling(profile: StageProfile | None = None):
    """Install a (fresh by default) profile for the block, then restore."""
    active = StageProfile() if profile is None else profile
    previous = set_stage_profile(active)
    try:
        yield active
    finally:
        set_stage_profile(previous)


def render_stage_profile(profile: StageProfile, top: int = 20) -> str:
    """A fixed-width table of the hottest stage paths by exclusive time."""
    stats = sorted(
        profile.stats().items(), key=lambda kv: (-kv[1].self_s, kv[0])
    )
    if not stats:
        return "(no stages recorded)"
    total_self = sum(stat.self_s for _, stat in stats) or 1.0
    lines = [
        "Stage profile (exclusive time):",
        f"  {'count':>9}  {'incl s':>9}  {'excl s':>9}  {'excl %':>6}  stage",
    ]
    for path, stat in stats[:top]:
        indent = "  " * (len(path) - 1)
        lines.append(
            f"  {stat.count:>9}  {stat.total_s:>9.4f}  {stat.self_s:>9.4f}"
            f"  {100.0 * stat.self_s / total_self:>5.1f}%  {indent}{path[-1]}"
        )
    if len(stats) > top:
        lines.append(f"  ... {len(stats) - top} more stage paths")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SamplingProfiler: background-thread stack sampler
# ---------------------------------------------------------------------------


class SamplingProfiler:
    """Statistical profiler sampling all thread stacks from a daemon thread.

    ``hz`` sets the sampling rate (the sampler sleeps on an event, so
    ``stop()`` returns promptly regardless of rate).  ``pause()`` /
    ``resume()`` gate sampling without tearing the thread down — a paused
    profiler records nothing, exactly (pinned by the pause/resume
    boundary tests).  :meth:`sample_once` takes a single synchronous
    sample and returns the number of stacks recorded; it honours the
    paused flag, which makes boundary behaviour testable without racing
    the background thread.

    Consecutive identical frames (direct recursion) collapse into one
    entry so a depth-1000 recursive stack costs one table slot; the table
    itself holds at most ``max_stacks`` unique stacks, with the excess
    counted under ``<overflow>`` so totals remain exact.
    """

    _THREAD_NAME = "repro-prof-sampler"

    def __init__(
        self,
        hz: float = 97.0,
        max_depth: int = 64,
        max_stacks: int = 4096,
        timeline: int = 2048,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive: {hz!r}")
        self.hz = float(hz)
        self.max_depth = int(max_depth)
        self.max_stacks = int(max_stacks)
        self._lock = threading.Lock()
        self._stacks: dict[tuple[str, ...], int] = {}
        self._timeline: deque = deque(maxlen=int(timeline))
        self.n_ticks = 0
        self.n_samples = 0
        self.n_overflow = 0
        self._paused = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def paused(self) -> bool:
        return self._paused

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=self._THREAD_NAME, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _loop(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            if not self._paused:
                self.sample_once()

    # -- sampling -----------------------------------------------------

    def sample_once(self) -> int:
        """Take one sample of every live thread; returns stacks recorded."""
        if self._paused:
            return 0
        # Only the sampler's own thread is excluded — a synchronous call
        # (tests, one-shot probes) deliberately records the caller too.
        skip = set()
        thread = self._thread
        if thread is not None and thread.ident is not None:
            skip.add(thread.ident)
        now = time.perf_counter()
        recorded = 0
        frames = sys._current_frames()
        try:
            with self._lock:
                self.n_ticks += 1
                for tid, frame in frames.items():
                    if tid in skip:
                        continue
                    stack = self._collapse(frame)
                    self._record(stack)
                    self._timeline.append((now, tid, stack))
                    recorded += 1
                self.n_samples += recorded
        finally:
            del frames
        return recorded

    def _collapse(self, frame) -> tuple[str, ...]:
        labels: list[str] = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            code = frame.f_code
            label = f"{os.path.basename(code.co_filename)}:{code.co_name}"
            # Direct recursion folds into a single frame entry.
            if not labels or labels[-1] != label:
                labels.append(label)
            frame = frame.f_back
            depth += 1
        if frame is not None:
            labels.append("<truncated>")
        labels.reverse()
        return tuple(labels)

    def _record(self, stack: tuple[str, ...]) -> None:
        count = self._stacks.get(stack)
        if count is not None:
            self._stacks[stack] = count + 1
        elif len(self._stacks) < self.max_stacks:
            self._stacks[stack] = 1
        else:
            overflow = ("<overflow>",)
            self._stacks[overflow] = self._stacks.get(overflow, 0) + 1
            self.n_overflow += 1

    # -- aggregation & exporters --------------------------------------

    def stacks(self) -> dict[tuple[str, ...], int]:
        with self._lock:
            return dict(self._stacks)

    def merge(self, other: "SamplingProfiler | dict") -> "SamplingProfiler":
        """Additive fold of another sampler's stack table (associative)."""
        if isinstance(other, SamplingProfiler):
            items = other.stacks()
            ticks, samples, overflow = (
                other.n_ticks,
                other.n_samples,
                other.n_overflow,
            )
        else:
            if other.get("schema") != PROFILE_SCHEMA:
                raise ValueError(
                    f"unsupported sampling-profile schema: {other.get('schema')!r}"
                )
            items = {
                tuple(key.split(_PATH_SEP)): int(count)
                for key, count in other["stacks"].items()
            }
            ticks = int(other.get("n_ticks", 0))
            samples = int(other.get("n_samples", 0))
            overflow = int(other.get("n_overflow", 0))
        with self._lock:
            for stack, count in items.items():
                self._stacks[stack] = self._stacks.get(stack, 0) + count
            self.n_ticks += ticks
            self.n_samples += samples
            self.n_overflow += overflow
        return self

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "schema": PROFILE_SCHEMA,
                "hz": self.hz,
                "n_ticks": self.n_ticks,
                "n_samples": self.n_samples,
                "n_overflow": self.n_overflow,
                "stacks": {
                    _PATH_SEP.join(stack): count
                    for stack, count in sorted(self._stacks.items())
                },
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "SamplingProfiler":
        profiler = cls(hz=float(payload.get("hz", 97.0)))
        return profiler.merge(payload)

    def collapsed(self) -> str:
        """flamegraph.pl-compatible collapsed stacks, weight = samples."""
        return "\n".join(
            f"{_PATH_SEP.join(stack)} {count}"
            for stack, count in sorted(self.stacks().items())
        )

    def chrome_events(self) -> list[dict]:
        """Instant events from the recent-sample timeline (chrome://tracing)."""
        with self._lock:
            timeline = list(self._timeline)
        return [
            {
                "name": stack[-1] if stack else "<empty>",
                "ph": "i",
                "s": "t",
                "pid": 0,
                "tid": tid,
                "ts": wall * 1e6,
                "args": {"stack": _PATH_SEP.join(stack)},
            }
            for wall, tid, stack in timeline
        ]

    def chrome_json(self) -> str:
        return json.dumps({"traceEvents": self.chrome_events()}, indent=2)
