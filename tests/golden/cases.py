"""The golden-trace case set: Fig. 3-style reference scenes.

These scenes freeze the radiometric forward model: their scalar
photocurrents are committed to ``fig3_waveforms.npz`` and every engine
change must keep reproducing them (and the batched path must match the
scalar path on them bit for bit).  The set spans the axes the engine
branches on: different gestures (different patch kinematics), fixed
sensing distances, a non-default ambient model, and a non-gesture
trajectory.

Regenerate the committed file with::

    PYTHONPATH=src python tests/golden/regenerate.py

but only when the physics is *meant* to change — the diff is the review
artifact.
"""

from __future__ import annotations

from pathlib import Path

from repro.datasets.generator import (
    CampaignConfig,
    CampaignGenerator,
    CaptureTask,
)
from repro.hand.finger import scene_for_trajectory
from repro.noise.ambient import TimeOfDayAmbient
from repro.utils import derive_rng

GOLDEN_SEED = 902
GOLDEN_PATH = Path(__file__).parent / "fig3_waveforms.npz"

# (name, task): gestures x distances x ambient models, plus a non-gesture.
GOLDEN_TASKS: list[tuple[str, CaptureTask]] = [
    ("circle_u0", CaptureTask(
        kind="gesture", user_id=0, session_id=0, label="circle",
        repetition=0)),
    ("scroll_up_u1", CaptureTask(
        kind="gesture", user_id=1, session_id=0, label="scroll_up",
        repetition=0)),
    ("click_d20", CaptureTask(
        kind="gesture", user_id=0, session_id=0, label="click",
        repetition=1, distance_override_mm=20.0,
        condition="distance=20.0")),
    ("double_rub_d50", CaptureTask(
        kind="gesture", user_id=2, session_id=0, label="double_rub",
        repetition=0, distance_override_mm=50.0,
        condition="distance=50.0")),
    ("rub_hour14", CaptureTask(
        kind="gesture", user_id=1, session_id=0, label="rub",
        repetition=2, ambient=TimeOfDayAmbient(hour=14.0).to_model(),
        condition="hour=14")),
    ("scratch_u0", CaptureTask(
        kind="nongesture", user_id=0, session_id=0, label="scratch",
        repetition=0)),
]


def build_golden_scenes():
    """The deterministic golden scene set.

    Returns ``(generator, [(name, scene), ...])``; every stochastic draw
    is keyed by :data:`GOLDEN_SEED` and the task coordinates, so the same
    scenes are rebuilt bit-for-bit on every call.
    """
    config = CampaignConfig(n_users=3, n_sessions=1, repetitions=3,
                            seed=GOLDEN_SEED)
    generator = CampaignGenerator(config=config)
    return generator, [(name, scene_for_task(generator, task))
                       for name, task in GOLDEN_TASKS]


def scene_for_task(generator: CampaignGenerator, task: CaptureTask):
    """The optical scene *generator* captures for *task* (no wristband
    sway), drawn from the task's own keyed streams."""
    trajectory = generator._synthesize_task(task)
    rng = derive_rng(generator.config.seed, "capture", task.user_id,
                     task.session_id, task.label, task.repetition,
                     task.condition)
    ambient = task.ambient or generator.ambient
    irradiance = ambient.irradiance(trajectory.times_s, rng)
    return scene_for_trajectory(trajectory, generator.users[task.user_id],
                                ambient_mw_mm2=irradiance, rng=rng)
