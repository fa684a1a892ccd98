"""Shared machinery of the perf benchmark: inputs, clocks and aggregation.

Everything here talks to the program only through its public surface:
the campaign generator synthesizes the device captures, the detector is
trained the way ``airfinger train`` trains it, and the serve protocol
functions encode the wire bytes.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.acquisition.stream import RssFrame
from repro.core.detector import DetectAimedRecognizer
from repro.core.events import SegmentEvent
from repro.core.pipeline import AirFinger
from repro.datasets import CampaignConfig, CampaignGenerator
from repro.faults import ChannelDropoutFault, FaultSchedule, FrameDropFault
from repro.hand.gestures import GESTURE_NAMES
from repro.ml.forest import RandomForestClassifier
from repro.obs import MetricsRegistry, Tracer
from repro.serve import protocol

RATE_HZ = 100.0
FRAMES_PER_MESSAGE = 10
TENANT = "perf"
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: frames per session and repetition in the fleet workloads (2 s at 100 Hz)
WINDOW_FRAMES = 200
#: fewest timed repetitions per run (traced runs: of each kind)
MIN_REPETITIONS = 3


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------
class CpuVirtualClock:
    """Monotonic clock that advances with this process's CPU time.

    ``clock() = offset + process_time()``: serving work moves time
    forward by exactly the CPU it burns, :meth:`advance_to` skips idle
    gaps forward (never backward), and :meth:`freeze` pins the reading
    while a message is stamped at its due instant.  Latencies measured
    on it are dedicated-core queueing plus processing delays, immune to
    other processes timesharing the core.
    """

    __slots__ = ("offset", "_frozen")

    def __init__(self) -> None:
        self.offset = 0.0
        self._frozen: float | None = None

    def __call__(self) -> float:
        if self._frozen is not None:
            return self._frozen
        return self.offset + time.process_time()

    def freeze(self, instant_s: float) -> None:
        self._frozen = instant_s

    def thaw(self) -> None:
        self._frozen = None

    def advance_to(self, instant_s: float) -> None:
        now = self.offset + time.process_time()
        if instant_s > now:
            self.offset += instant_s - now

    def reset(self, instant_s: float = 0.0) -> None:
        """Make the current reading *instant_s*."""
        self._frozen = None
        self.offset = instant_s - time.process_time()


def cpu_s() -> float:
    """This process's CPU time (user + system), seconds."""
    return time.process_time()


def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current size."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """This process's peak resident set size, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-th percentile (0..100) of *values*."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def unit_min(reps: list[dict]) -> dict:
    """Each unit's least cost over identical repetitions.

    Interference from other tenants of a shared host comes in bursts and
    only ever slows work down, so a burst spoils some units of one
    repetition, not the whole run: charging every unit of work (a
    message, a block, an event) the cost it had in its least-disturbed
    repetition filters bursts that a best-whole-repetition rule cannot.
    """
    keys = reps[0].keys()
    if any(rep.keys() != keys for rep in reps):
        raise RuntimeError("repetitions did different work")
    return {key: min(rep[key] for rep in reps) for key in keys}


def closes_segment(events) -> bool:
    """Whether *events* include a closed segment."""
    return any(type(event) is SegmentEvent for event in events)


def digest(events) -> str:
    """Order-sensitive fingerprint of an event sequence's ``repr``."""
    h = hashlib.sha256()
    for event in events:
        h.update(repr(event).encode())
        h.update(b"\n")
    return h.hexdigest()


def quiesce() -> None:
    """Collect garbage between repetitions, outside any timed window."""
    gc.collect()


# ----------------------------------------------------------------------
# the simulated users
# ----------------------------------------------------------------------
#: Seed of the simulated user population (hands, styles, gesture specs).
#: It is fixed so every --seed exercises the same kinds of hands: across
#: seeds, only the realizations below change, and the work a repetition
#: does stays comparable.
POPULATION_SEED = 2020


def population(users: int) -> CampaignGenerator:
    """Campaign generator over the fixed population of *users* users."""
    return CampaignGenerator(CampaignConfig(
        n_users=users, n_sessions=1, repetitions=1, seed=POPULATION_SEED))


def realization(seed: int) -> str:
    """The capture ``condition`` keying every random draw to *seed*.

    The generator derives the motion noise of each gesture and the
    sensor and ambient noise of each capture from it, so a new seed is
    the same users performing the same gestures in a fresh recording.
    """
    return f"perf-seed-{seed}"


# ----------------------------------------------------------------------
# the model: trained like `airfinger train`
# ----------------------------------------------------------------------
#: Capture condition of the training campaign.  The model under test is
#: the same for every --seed: a per-seed model changed the forest's
#: shapes, and with them the cost of every classification, by more than
#: the frames a seed draws did.
TRAINING_CONDITION = "perf-train"


def train_detector() -> DetectAimedRecognizer:
    """Detect-aimed recognizer from a 3-user x 1-session x 4-rep campaign
    of the fixed population: 60 trees, ``random_state=7``."""
    generator = population(3)
    tasks = [replace(task, condition=TRAINING_CONDITION)
             for task in generator.plan_main_campaign(
                 users=range(3), sessions=[0], repetitions=4)]
    corpus = generator.run_tasks(tasks)
    detect = corpus.filter(lambda s: not s.is_track_aimed)
    detector = DetectAimedRecognizer(
        model_factory=lambda: RandomForestClassifier(
            n_estimators=60, random_state=7))
    detector.fit(detect.signals(), detect.labels)
    return detector


def engine_factory(detector, registry: MetricsRegistry):
    return lambda: AirFinger(detector=detector, metrics=registry,
                             tracer=Tracer(sample=0.0))


def replay(detector, frames, block_size: int = 4096) -> list:
    """Reference events: an in-process ``feed_frames`` replay."""
    engine = AirFinger(detector=detector, metrics=MetricsRegistry(),
                       tracer=Tracer(sample=0.0))
    return engine.feed_frames(frames, block_size=block_size)


# ----------------------------------------------------------------------
# captures
# ----------------------------------------------------------------------
def _final_idle_start(recording) -> int:
    """Start of the trailing idle part of a generator stream."""
    return recording.meta["segments"][-1][1]


def fixed_length_stream(generator: CampaignGenerator, user: int,
                        gestures: list[str], n_frames: int, idle_s: float,
                        condition: str, lead_in_s: float = 0.5):
    """``generator.stream`` of exactly *n_frames* frames, or ``None``.

    A stream that runs long is cut inside its trailing idle part; one
    that runs short is regenerated with a longer lead-in.  ``None`` means
    the gestures do not fit at all.
    """
    rec = generator.stream(user, gestures, idle_s=idle_s,
                           lead_in_s=lead_in_s,
                           condition=condition).recording
    if _final_idle_start(rec) > n_frames:
        return None
    if rec.n_samples < n_frames:
        pad_s = (n_frames - rec.n_samples) / RATE_HZ
        rec = generator.stream(user, gestures, idle_s=idle_s,
                               lead_in_s=lead_in_s + pad_s,
                               condition=condition).recording
    return rec.slice(0, n_frames)


def idle_captures(seed: int, users: int, n_frames: int) -> list:
    """One idle-dominated recording per user: one gesture, then idle.

    Looped, each capture shows its user gesturing once every
    ``n_frames / RATE_HZ`` seconds.  The users' gestures are spread
    evenly over the eight (user ``u`` of ``n`` performs gesture
    ``8u // n``), so a few users still cover circles, rubs, clicks and
    scrolls.
    """
    generator = population(users)
    n = len(GESTURE_NAMES)
    return [fixed_length_stream(
                generator, u, [GESTURE_NAMES[u * n // users]],
                n_frames, idle_s=n_frames / RATE_HZ,
                condition=realization(seed))
            for u in range(users)]


def dense_captures(seed: int, users: int, n_frames: int,
                   fault_intensity: float) -> list:
    """One gesture-dense, faulted capture per user.

    Each user performs as many gestures (0.5 s apart) as fit in
    *n_frames*, cycling through the eight gestures from a per-user start
    so every gesture appears about equally often.  A seeded frame-drop +
    channel-dropout schedule then removes frames (their indices become
    gaps) and kills channels.
    """
    generator = population(users)
    schedule = FaultSchedule(
        faults=(FrameDropFault(), ChannelDropoutFault()),
        seed=seed).at(fault_intensity)
    out = []
    for u in range(users):
        cycle = [GESTURE_NAMES[(3 * u + i) % len(GESTURE_NAMES)]
                 for i in range(len(GESTURE_NAMES))]
        # the longest prefix of the cycle that fits; a slow user whose
        # first gesture alone overruns gets the first one that fits
        tries = [cycle[:k] for k in (3, 2)] + [[g] for g in cycle]
        for gestures in tries:
            rec = fixed_length_stream(generator, u, gestures, n_frames,
                                      idle_s=0.5,
                                      condition=realization(seed))
            if rec is not None:
                break
        else:
            raise RuntimeError(f"user {u}: no gesture fits {n_frames} frames")
        out.append(list(schedule.stream(rec, "perf-dense", u)))
    return out


def rotate(frames: list[RssFrame], offset: int, length: int,
           limit: int | None = None) -> list[RssFrame]:
    """*frames* (a capture of *length* positions) rotated by *offset*.

    Position ``i`` becomes ``(i - offset) mod length`` and the result is
    re-indexed contiguously from 0 — so a capture whose fault schedule
    dropped frames keeps exactly those gaps, just shifted.  Times are
    restamped from the new indices.  With *limit*, only the first
    *limit* positions are kept (a session's window).
    """
    out = []
    for f in frames:
        index = (f.index - offset) % length
        if limit is None or index < limit:
            out.append(RssFrame(index=index, time_s=index / RATE_HZ,
                                values=f.values))
    out.sort(key=lambda f: f.index)
    return out


def split_messages(frames: list[RssFrame]) -> list[tuple[int, list]]:
    """``(k, frames)`` pairs: message ``k`` carries positions [10k, 10k+10).

    A device sends what it sampled every 100 ms; a message whose frames
    were all dropped is never sent.
    """
    by_slot: dict[int, list] = {}
    for f in frames:
        by_slot.setdefault(f.index // FRAMES_PER_MESSAGE, []).append(f)
    return sorted(by_slot.items())


def encode_frames(frames: list[RssFrame]) -> bytes:
    return protocol.encode_message(protocol.frames_message(frames))


# ----------------------------------------------------------------------
# run structure: set-ups, repetitions, results
# ----------------------------------------------------------------------
@dataclass
class SetupStats:
    #: the last set-up's detector
    detector: DetectAimedRecognizer
    #: median CPU seconds of one set-up
    setup_s: float


def timed_setups(extra=None) -> SetupStats:
    """Set up :data:`SETUP_REPEATS` times; report the median.

    One set-up trains the detector and then runs *extra* (open the
    sessions), if given.
    """
    cpu, detector = [], None
    for _ in range(SETUP_REPEATS):
        quiesce()
        t0 = cpu_s()
        detector = train_detector()
        if extra is not None:
            extra(detector)
        cpu.append(cpu_s() - t0)
    return SetupStats(detector=detector, setup_s=statistics.median(cpu))


def repeat(seconds: float, run_one, traced: bool) -> list:
    """Repetitions until *seconds* of wall time have passed.

    At least :data:`MIN_REPETITIONS`.  Traced runs alternate untraced
    (even ``i``) and traced (odd ``i``) repetitions, at least that many
    of each, so the tracing overhead is measured under the same
    conditions.
    """
    minimum = MIN_REPETITIONS * (2 if traced else 1)
    reps = []
    t_end = time.perf_counter() + seconds
    while len(reps) < minimum or time.perf_counter() < t_end \
            or (traced and len(reps) % 2):
        reps.append(run_one(len(reps), traced and len(reps) % 2 == 1))
    return reps


@dataclass
class Result:
    """One workload's outcome: metrics plus failure accounting."""

    metrics: dict
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)
    closure_ok: bool = True


def faults(snapshot) -> float:
    """Gaps, channel masks and out-of-order frames in a registry snapshot."""
    prefixes = ("pipeline.faults.gaps", "pipeline.faults.channel_masked",
                "pipeline.faults.out_of_order")
    return sum(v for key, v in snapshot.counters.items()
               if key.startswith(prefixes))


def drops(snapshot) -> float:
    return sum(v for key, v in snapshot.counters.items()
               if key.startswith("serve.backpressure_drops"))


def overhead_share(traced: list, plain: list) -> float:
    """Best traced CPU per frame over best untraced, minus one."""
    def best(reps):
        return min(rep.cpu_s / rep.frames for rep in reps)
    return best(traced) / best(plain) - 1.0


def closure_ok(metrics: dict, traced_cpu_s: float, frames: int) -> bool:
    """Unattributed CPU within 10% of the traced CPU per frame."""
    per_frame_us = traced_cpu_s / frames * 1e6
    return metrics["unattributed_us_per_frame"] <= 0.10 * per_frame_us
