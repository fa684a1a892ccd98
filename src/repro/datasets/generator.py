"""Campaign generation: the simulated stand-in for Section V-B data collection.

A :class:`CampaignGenerator` owns the simulated hardware (array + sampler)
and a seeded user population; its methods run the paper's campaigns:

* :meth:`main_campaign` — users x gestures x sessions x repetitions (the
  10,000-sample corpus behind Figs. 9-12 and Table II);
* :meth:`distance_campaign` — the Fig. 8 sensing-distance sweep;
* :meth:`ambient_campaign` — the Fig. 15 time-of-day sweep;
* :meth:`offhand_campaign` — the Fig. 16 non-dominant-hand sessions;
* :meth:`wristband_campaign` — the Fig. 17 sitting/standing/walking demo;
* :meth:`interference_campaign` — gestures + non-gestures (Fig. 14);
* :meth:`stream` — a continuous recording with idle gaps for pipeline /
  segmentation experiments (Fig. 5).

Each campaign is split into a *plan* (``plan_*`` methods returning a flat
list of :class:`CaptureTask` descriptors) and an *execution* step
(:meth:`CampaignGenerator.run_tasks`), which captures tasks in batches
through :meth:`repro.acquisition.sampler.SensorSampler.record_batch` so the
radiometric hot path runs as stacked numpy operations.  Every stochastic
draw is keyed by the task's own coordinates via
:func:`repro.utils.derive_rng`, never by execution order, so a corpus is
bit-identical no matter how the task list is batched, chunked, or
distributed across workers (see
:class:`repro.datasets.parallel.ParallelCampaignGenerator`).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.acquisition.sampler import SensorSampler
from repro.datasets.corpus import GestureCorpus, GestureSample
from repro.hand.gestures import GESTURE_NAMES, synthesize_gesture
from repro.hand.nongestures import NONGESTURE_NAMES, synthesize_nongesture
from repro.hand.profiles import UserProfile, make_spec, sample_population
from repro.hand.trajectory import (
    Trajectory,
    concatenate_trajectories,
    idle_trajectory,
)
from repro.hand.finger import scene_for_trajectory
from repro.noise.ambient import AmbientModel, TimeOfDayAmbient, indoor_ambient
from repro.noise.motion import WRISTBAND_CONDITIONS
from repro.obs import (MetricsRegistry, get_registry, get_stage_profile,
                       get_tracer)
from repro.optics.array import SensorArray, airfinger_array
from repro.utils import chunked, derive_rng

#: Buckets for the ``campaign.batch_fill`` histogram (fraction of the
#: configured batch size each radiometric pass actually carried).
_BATCH_FILL_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

__all__ = ["CampaignConfig", "CampaignGenerator", "CaptureTask"]


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of the main campaign.

    The paper's full scale is 10 users x 5 sessions x 25 repetitions; the
    default here matches it, and the benchmarks scale ``repetitions`` down
    (the protocols are invariant to the repetition count).
    """

    n_users: int = 10
    n_sessions: int = 5
    repetitions: int = 25
    gestures: tuple[str, ...] = GESTURE_NAMES
    seed: int = 2020
    sample_rate_hz: float = 100.0

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_sessions < 1 or self.repetitions < 1:
            raise ValueError("campaign dimensions must be positive")
        unknown = [g for g in self.gestures if g not in GESTURE_NAMES]
        if unknown:
            raise ValueError(f"unknown gestures: {unknown}")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    @property
    def n_samples(self) -> int:
        """Total samples the main campaign will produce."""
        return (self.n_users * self.n_sessions * self.repetitions
                * len(self.gestures))


@dataclass(frozen=True)
class CaptureTask:
    """One planned capture: the full coordinates of a corpus sample.

    A task is a pure value object — it carries everything needed to
    reproduce the sample (all RNG streams are derived from the campaign
    seed plus these coordinates), so tasks can be captured in any batch
    grouping, order, or process and still yield bit-identical recordings.
    """

    kind: str                                  # "gesture" | "nongesture"
    user_id: int
    session_id: int
    label: str                                 # gesture name or NG family
    repetition: int
    distance_override_mm: float | None = None
    condition: str = ""
    ambient: AmbientModel | None = None        # None -> generator default
    mirror: bool = False
    wristband_condition: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gesture", "nongesture"):
            raise ValueError(
                f"kind must be 'gesture' or 'nongesture', got {self.kind!r}")


@dataclass
class CampaignGenerator:
    """Runs data-collection campaigns against the simulated sensing chain.

    Parameters
    ----------
    config, array, ambient:
        Campaign shape, sensor board, default ambient model.
    batch_size:
        Number of captures evaluated per batched radiometric pass (see
        :meth:`run_tasks`).  Output is bit-identical for every batch size;
        larger batches amortize more Python overhead at the cost of peak
        memory.
    metrics:
        Metrics registry for campaign throughput / batch-fill counters;
        defaults to the process-global registry.  Instrumentation never
        touches the RNG streams, so the determinism contract holds with
        it on or off.
    """

    config: CampaignConfig = field(default_factory=CampaignConfig)
    array: SensorArray = field(default_factory=airfinger_array)
    ambient: AmbientModel = field(default_factory=indoor_ambient)
    batch_size: int = 64
    metrics: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.sampler = SensorSampler(array=self.array,
                                     sample_rate_hz=self.config.sample_rate_hz)
        self.users: list[UserProfile] = sample_population(
            self.config.n_users, self.config.seed)
        self._obs = self.metrics if self.metrics is not None else get_registry()

    # ------------------------------------------------------------------
    # single-sample machinery
    # ------------------------------------------------------------------
    def _capture(self,
                 trajectory: Trajectory,
                 user: UserProfile | None,
                 rng_key: tuple,
                 label: str,
                 user_id: int,
                 session_id: int,
                 repetition: int,
                 condition: str = "",
                 ambient: AmbientModel | None = None,
                 wristband_condition: str | None = None) -> GestureSample:
        rng = derive_rng(self.config.seed, "capture", *rng_key)
        ambient = ambient or self.ambient
        irradiance = ambient.irradiance(trajectory.times_s, rng)
        scene = scene_for_trajectory(trajectory, user,
                                     ambient_mw_mm2=irradiance, rng=rng)
        if wristband_condition is not None:
            from repro.noise.motion import apply_scene_sway
            apply_scene_sway(scene, wristband_condition, rng)
        recording = self.sampler.record(
            scene, rng=rng, label=label,
            meta={"user_id": user_id, "session_id": session_id,
                  "repetition": repetition, **trajectory.meta})
        return GestureSample(recording=recording, label=label,
                             user_id=user_id, session_id=session_id,
                             repetition=repetition, condition=condition)

    def capture_gesture(self,
                        user_id: int,
                        session_id: int,
                        gesture: str,
                        repetition: int,
                        distance_override_mm: float | None = None,
                        condition: str = "",
                        ambient: AmbientModel | None = None,
                        mirror: bool = False,
                        wristband_condition: str | None = None
                        ) -> GestureSample:
        """Capture one gesture repetition under the given conditions."""
        return self.capture_tasks([CaptureTask(
            kind="gesture", user_id=user_id, session_id=session_id,
            label=gesture, repetition=repetition,
            distance_override_mm=distance_override_mm, condition=condition,
            ambient=ambient, mirror=mirror,
            wristband_condition=wristband_condition)])[0]

    def capture_nongesture(self,
                           user_id: int,
                           session_id: int,
                           family: str,
                           repetition: int,
                           condition: str = "") -> GestureSample:
        """Capture one unintentional motion (scratch/extend/reposition)."""
        return self.capture_tasks([CaptureTask(
            kind="nongesture", user_id=user_id, session_id=session_id,
            label=family, repetition=repetition, condition=condition)])[0]

    # ------------------------------------------------------------------
    # batched task execution
    # ------------------------------------------------------------------
    def _synthesize_task(self, task: CaptureTask) -> Trajectory:
        """The task's trajectory, from its own derived RNG stream."""
        user = self.users[task.user_id]
        session = user.session(task.session_id, self.config.seed)
        if task.kind == "gesture":
            spec = make_spec(user, session, task.label, task.repetition,
                             self.config.seed,
                             distance_override_mm=task.distance_override_mm,
                             sample_rate_hz=self.config.sample_rate_hz)
            rng = derive_rng(self.config.seed, "traj", task.user_id,
                             task.session_id, task.label, task.repetition,
                             task.condition)
            trajectory = synthesize_gesture(spec, rng=rng)
            if task.mirror:
                trajectory = trajectory.mirrored_x()
            return trajectory
        # non-gestures borrow the kinematic envelope of a neutral spec
        spec = make_spec(user, session, "circle", task.repetition,
                         self.config.seed,
                         sample_rate_hz=self.config.sample_rate_hz)
        rng = derive_rng(self.config.seed, "nongesture", task.user_id,
                         task.session_id, task.label, task.repetition)
        return synthesize_nongesture(task.label, spec, rng=rng)

    def _capture_batch(self, tasks: Sequence[CaptureTask]
                       ) -> list[GestureSample]:
        """Capture *tasks* through one batched radiometric pass."""
        tracer = get_tracer()
        prof = get_stage_profile()
        t0 = time.perf_counter() if prof is not None else 0.0
        scenes, rngs, labels, metas = [], [], [], []
        for task in tasks:
            with tracer.span("campaign.task", label=task.label,
                             user=task.user_id, session=task.session_id,
                             repetition=task.repetition):
                trajectory = self._synthesize_task(task)
                rng = derive_rng(self.config.seed, "capture", task.user_id,
                                 task.session_id, task.label, task.repetition,
                                 task.condition)
                ambient = task.ambient or self.ambient
                irradiance = ambient.irradiance(trajectory.times_s, rng)
                scene = scene_for_trajectory(
                    trajectory, self.users[task.user_id],
                    ambient_mw_mm2=irradiance, rng=rng)
                if task.wristband_condition is not None:
                    from repro.noise.motion import apply_scene_sway
                    apply_scene_sway(scene, task.wristband_condition, rng)
            scenes.append(scene)
            rngs.append(rng)
            labels.append(task.label)
            metas.append({"user_id": task.user_id,
                          "session_id": task.session_id,
                          "repetition": task.repetition,
                          **trajectory.meta})
        if prof is not None:
            prof.add("campaign.synthesize", time.perf_counter() - t0,
                     count=len(tasks))
            t0 = time.perf_counter()
        recordings = self.sampler.record_batch(scenes, rngs=rngs,
                                               labels=labels, metas=metas)
        if prof is not None:
            prof.add("sampler.record_batch", time.perf_counter() - t0,
                     count=len(tasks))
        return [GestureSample(recording=recording, label=task.label,
                              user_id=task.user_id,
                              session_id=task.session_id,
                              repetition=task.repetition,
                              condition=task.condition)
                for task, recording in zip(tasks, recordings)]

    def capture_tasks(self, tasks: Sequence[CaptureTask],
                      batch_size: int | None = None) -> list[GestureSample]:
        """Capture *tasks* in batches of *batch_size* (default from self).

        Output is bit-identical for every batch size: all stochastic draws
        are keyed by task coordinates, and the batched engine applies the
        same float operations in the same order as the scalar path.
        """
        batch = batch_size or self.batch_size
        tracer = get_tracer()
        prof = get_stage_profile()
        out: list[GestureSample] = []
        for chunk in chunked(tasks, batch):
            # synthesize / record_batch nest under the profile scope; its
            # exclusive time is the batching glue itself
            scope = (prof.scope("campaign.batch") if prof is not None
                     else nullcontext())
            with tracer.span("campaign.chunk", n_tasks=len(chunk)), \
                    self._obs.timer("campaign.batch_seconds"), scope:
                out.extend(self._capture_batch(chunk))
            self._obs.counter("campaign.tasks").inc(len(chunk))
            self._obs.counter("campaign.batches").inc()
            self._obs.histogram(
                "campaign.batch_fill",
                buckets=_BATCH_FILL_BUCKETS).observe(len(chunk) / batch)
            self._obs.gauge("campaign.last_batch_size").set(len(chunk))
        return out

    def run_tasks(self, tasks: Sequence[CaptureTask],
                  batch_size: int | None = None) -> GestureCorpus:
        """Execute a campaign plan into a :class:`GestureCorpus`."""
        tasks = list(tasks)
        batch = batch_size or self.batch_size
        corpus = GestureCorpus()
        with get_tracer().span("campaign.plan", n_tasks=len(tasks),
                               workers=1, batch_size=batch):
            corpus.samples.extend(self.capture_tasks(tasks, batch))
        return corpus

    # ------------------------------------------------------------------
    # campaign plans
    # ------------------------------------------------------------------
    def plan_main_campaign(self,
                           gestures: Sequence[str] | None = None,
                           users: Sequence[int] | None = None,
                           sessions: Sequence[int] | None = None,
                           repetitions: int | None = None
                           ) -> list[CaptureTask]:
        """The Section V-B capture plan (optionally restricted)."""
        gestures = tuple(gestures or self.config.gestures)
        users = tuple(users if users is not None
                      else range(self.config.n_users))
        sessions = tuple(sessions if sessions is not None
                         else range(self.config.n_sessions))
        reps = repetitions or self.config.repetitions
        return [CaptureTask(kind="gesture", user_id=uid, session_id=sid,
                            label=gesture, repetition=rep)
                for uid in users
                for sid in sessions
                for gesture in gestures
                for rep in range(reps)]

    def plan_distance_campaign(self,
                               distances_mm: Sequence[float],
                               users: Sequence[int] = (0, 1, 2),
                               repetitions: int = 8,
                               gestures: Sequence[str] | None = None
                               ) -> list[CaptureTask]:
        """The Fig. 8 sweep plan: gestures performed at fixed distances."""
        gestures = tuple(gestures or self.config.gestures)
        return [CaptureTask(kind="gesture", user_id=uid, session_id=0,
                            label=gesture, repetition=rep,
                            distance_override_mm=float(distance),
                            condition=f"distance={float(distance)}")
                for distance in distances_mm
                for uid in users
                for gesture in gestures
                for rep in range(repetitions)]

    def plan_ambient_campaign(self,
                              hours: Sequence[float] = (8, 11, 14, 17, 20),
                              users: Sequence[int] = (0, 1),
                              repetitions: int = 25,
                              gestures: Sequence[str] | None = None
                              ) -> list[CaptureTask]:
        """The Fig. 15 sweep plan: the same gestures at five times of day."""
        gestures = tuple(gestures or self.config.gestures)
        tasks = []
        for hour in hours:
            ambient = TimeOfDayAmbient(hour=float(hour)).to_model()
            tasks.extend(CaptureTask(
                kind="gesture", user_id=uid, session_id=0, label=gesture,
                repetition=rep, ambient=ambient,
                condition=f"hour={float(hour):g}")
                for uid in users
                for gesture in gestures
                for rep in range(repetitions))
        return tasks

    def plan_offhand_campaign(self,
                              users: Sequence[int] = (0, 1, 2, 3, 4, 5),
                              sessions: Sequence[int] = (0, 1),
                              repetitions: int = 20,
                              gestures: Sequence[str] | None = None
                              ) -> list[CaptureTask]:
        """The Fig. 16 plan: gestures performed with the mirrored hand."""
        gestures = tuple(gestures or self.config.gestures)
        return [CaptureTask(kind="gesture", user_id=uid, session_id=sid,
                            label=gesture, repetition=rep, mirror=True,
                            condition="offhand")
                for uid in users
                for sid in sessions
                for gesture in gestures
                for rep in range(repetitions)]

    def plan_wristband_campaign(self,
                                conditions: Sequence[str] = WRISTBAND_CONDITIONS,
                                users: Sequence[int] = (0, 1, 2, 3, 4, 5),
                                repetitions: int = 25,
                                gestures: Sequence[str] | None = None
                                ) -> list[CaptureTask]:
        """The Fig. 17 plan: worn sensor while sitting/standing/walking."""
        gestures = tuple(gestures or self.config.gestures)
        return [CaptureTask(kind="gesture", user_id=uid, session_id=0,
                            label=gesture, repetition=rep,
                            wristband_condition=condition,
                            condition=condition)
                for condition in conditions
                for uid in users
                for gesture in gestures
                for rep in range(repetitions)]

    def plan_interference_campaign(self,
                                   users: Sequence[int] = (0, 1, 2, 3, 4, 5),
                                   sessions: Sequence[int] = (0, 1),
                                   gestures_per_session: int = 25,
                                   nongestures_per_session: int = 25
                                   ) -> list[CaptureTask]:
        """The Fig. 14 plan: designed gestures mixed with non-gestures.

        The interference filter guards the *detect-aimed* path (Section
        IV-F: non-gestures "can be falsely segmented as a detect-aimed
        gesture"), so the gesture side of this campaign uses the six
        detect-aimed gestures; track-aimed segments never reach the filter.
        """
        from repro.hand.gestures import DETECT_GESTURES
        families = NONGESTURE_NAMES
        gestures = tuple(g for g in self.config.gestures
                         if g in DETECT_GESTURES) or DETECT_GESTURES
        tasks = []
        for uid in users:
            for sid in sessions:
                tasks.extend(CaptureTask(
                    kind="gesture", user_id=uid, session_id=sid,
                    label=gestures[rep % len(gestures)], repetition=rep,
                    condition="interference")
                    for rep in range(gestures_per_session))
                tasks.extend(CaptureTask(
                    kind="nongesture", user_id=uid, session_id=sid,
                    label=families[rep % len(families)], repetition=rep,
                    condition="interference")
                    for rep in range(nongestures_per_session))
        return tasks

    # ------------------------------------------------------------------
    # campaigns
    # ------------------------------------------------------------------
    def main_campaign(self,
                      gestures: Sequence[str] | None = None,
                      users: Sequence[int] | None = None,
                      sessions: Sequence[int] | None = None,
                      repetitions: int | None = None) -> GestureCorpus:
        """The Section V-B campaign (optionally restricted)."""
        return self.run_tasks(self.plan_main_campaign(
            gestures, users, sessions, repetitions))

    def distance_campaign(self,
                          distances_mm: Sequence[float],
                          users: Sequence[int] = (0, 1, 2),
                          repetitions: int = 8,
                          gestures: Sequence[str] | None = None
                          ) -> GestureCorpus:
        """The Fig. 8 sweep: gestures performed at fixed distances."""
        return self.run_tasks(self.plan_distance_campaign(
            distances_mm, users, repetitions, gestures))

    def ambient_campaign(self,
                         hours: Sequence[float] = (8, 11, 14, 17, 20),
                         users: Sequence[int] = (0, 1),
                         repetitions: int = 25,
                         gestures: Sequence[str] | None = None
                         ) -> GestureCorpus:
        """The Fig. 15 sweep: the same gestures at five times of day."""
        return self.run_tasks(self.plan_ambient_campaign(
            hours, users, repetitions, gestures))

    def offhand_campaign(self,
                         users: Sequence[int] = (0, 1, 2, 3, 4, 5),
                         sessions: Sequence[int] = (0, 1),
                         repetitions: int = 20,
                         gestures: Sequence[str] | None = None
                         ) -> GestureCorpus:
        """The Fig. 16 campaign: gestures performed with the mirrored hand."""
        return self.run_tasks(self.plan_offhand_campaign(
            users, sessions, repetitions, gestures))

    def wristband_campaign(self,
                           conditions: Sequence[str] = WRISTBAND_CONDITIONS,
                           users: Sequence[int] = (0, 1, 2, 3, 4, 5),
                           repetitions: int = 25,
                           gestures: Sequence[str] | None = None
                           ) -> GestureCorpus:
        """The Fig. 17 campaign: worn sensor while sitting/standing/walking."""
        return self.run_tasks(self.plan_wristband_campaign(
            conditions, users, repetitions, gestures))

    def interference_campaign(self,
                              users: Sequence[int] = (0, 1, 2, 3, 4, 5),
                              sessions: Sequence[int] = (0, 1),
                              gestures_per_session: int = 25,
                              nongestures_per_session: int = 25
                              ) -> GestureCorpus:
        """The Fig. 14 campaign: designed gestures mixed with non-gestures."""
        return self.run_tasks(self.plan_interference_campaign(
            users, sessions, gestures_per_session, nongestures_per_session))

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    @staticmethod
    def _transition(from_mm: np.ndarray, to_mm: np.ndarray,
                    sample_rate_hz: float,
                    speed_mm_s: float = 60.0,
                    hover_s: float = 0.45,
                    hover_at_end: bool = True) -> Trajectory | None:
        """A gentle hand move between two poses, with a settling hover.

        Without these bridges the concatenated stream would teleport the
        hand between rest and gesture poses, injecting step transients the
        isolated training samples never contain.  The hover leaves a quiet
        gap longer than ``t_e`` next to the gesture, so the segmenter cuts
        the gesture alone rather than clustering the approach into it.
        """
        from_mm = np.asarray(from_mm, dtype=np.float64)
        to_mm = np.asarray(to_mm, dtype=np.float64)
        distance = float(np.linalg.norm(to_mm - from_mm))
        if distance < 0.5:
            return None
        duration = max(distance / speed_mm_s, 0.2)
        n = max(4, int(round(duration * sample_rate_hz)))
        s = np.linspace(0.0, 1.0, n)
        ramp = 10 * s**3 - 15 * s**4 + 6 * s**5
        positions = from_mm + ramp[:, None] * (to_mm - from_mm)
        n_hover = max(2, int(round(hover_s * sample_rate_hz)))
        hover = np.tile(to_mm if hover_at_end else from_mm, (n_hover, 1))
        if hover_at_end:
            positions = np.concatenate([positions, hover])
        else:
            positions = np.concatenate([hover, positions])
        return Trajectory(
            times_s=np.arange(len(positions)) / sample_rate_hz,
            positions_mm=positions,
            normals=np.array([0.0, 0.0, -1.0]),
            label="idle")

    def stream(self,
               user_id: int,
               gesture_sequence: Sequence[str],
               session_id: int = 0,
               idle_s: float = 1.0,
               lead_in_s: float = 2.0,
               condition: str = "") -> GestureSample:
        """A continuous recording: idle, gestures, idle gaps (Fig. 5 input).

        The hand moves continuously: each gesture is preceded/followed by a
        gentle transition from/to the rest pose with a settling hover, the
        way a real session flows.  Ground-truth segment extents land in
        ``recording.meta['segments']`` (transitions carry the ``idle``
        label) and per-part ground truth in ``meta['segment_meta']``.
        """
        user = self.users[user_id]
        session = user.session(session_id, self.config.seed)
        rest = np.array([0.0, 25.0, user.preferred_distance_mm + 25.0])
        rate = self.config.sample_rate_hz
        parts = [idle_trajectory(lead_in_s, rate, rest_position_mm=rest)]
        for i, name in enumerate(gesture_sequence):
            rng = derive_rng(self.config.seed, "stream", user_id, session_id,
                             condition, i)
            if name in GESTURE_NAMES:
                spec = make_spec(user, session, name, i, self.config.seed,
                                 sample_rate_hz=rate)
                part = synthesize_gesture(spec, rng=rng)
            elif name in NONGESTURE_NAMES:
                spec = make_spec(user, session, "circle", i, self.config.seed,
                                 sample_rate_hz=rate)
                part = synthesize_nongesture(name, spec, rng=rng)
            else:
                raise ValueError(f"unknown stream element {name!r}")
            move_in = self._transition(rest, part.positions_mm[0], rate,
                                       hover_at_end=True)
            if move_in is not None:
                parts.append(move_in)
            parts.append(part)
            move_out = self._transition(part.positions_mm[-1], rest, rate,
                                        hover_at_end=False)
            if move_out is not None:
                parts.append(move_out)
            parts.append(idle_trajectory(idle_s, rate, rest_position_mm=rest))
        trajectory = concatenate_trajectories(parts)
        return self._capture(
            trajectory, user,
            rng_key=(user_id, session_id, "stream", condition),
            label="stream", user_id=user_id, session_id=session_id,
            repetition=0, condition=condition)
