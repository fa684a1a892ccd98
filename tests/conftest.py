"""Shared fixtures: small deterministic corpora and hardware models.

Expensive artifacts (campaign corpora, feature matrices) are session-scoped
so the whole suite pays for them once.
"""

from __future__ import annotations

import builtins
import math

import numpy as np
import pytest

from repro.acquisition import SensorSampler
from repro.core.config import AirFingerConfig
from repro.datasets import CampaignConfig, CampaignGenerator
from repro.eval.protocols import compute_features
from repro.hand.gestures import GestureSpec, synthesize_gesture
from repro.hand.finger import scene_for_trajectory
from repro.noise.ambient import indoor_ambient
from repro.optics.array import airfinger_array


def neumaier_sum(iterable, start=0):
    """``sum()`` as CPython 3.12 computes it: once the running total is a
    float, each float is added with Neumaier's compensation and the
    compensation joins the total at the end (if it is finite and nonzero).
    Older CPythons fold left to right from the start value instead."""
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if type(total) is float:
            break
    else:
        return total
    compensation = 0.0
    for item in items:
        if type(item) is not float:
            if compensation and math.isfinite(compensation):
                total += compensation
            compensation = 0.0
            total = total + item
            continue
        t = total + item
        if abs(total) >= abs(item):
            compensation += (total - t) + item
        else:
            compensation += (item - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.fixture
def compensated_sum(monkeypatch):
    """Builtin ``sum()`` replaced by CPython 3.12's compensated one, so a
    3.11 run shows whether code leans on the plain left fold."""
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    return neumaier_sum


@pytest.fixture(scope="session")
def array():
    """The default five-element board."""
    return airfinger_array()


@pytest.fixture(scope="session")
def sampler(array):
    """Default capture chain."""
    return SensorSampler(array=array)


@pytest.fixture(scope="session")
def config():
    """Paper-default stack configuration."""
    return AirFingerConfig()


@pytest.fixture(scope="session")
def generator():
    """A small 3-user campaign generator."""
    return CampaignGenerator(CampaignConfig(
        n_users=3, n_sessions=2, repetitions=3, seed=2020))


@pytest.fixture(scope="session")
def small_corpus(generator):
    """3 users x 2 sessions x 8 gestures x 2 reps = 96 samples."""
    return generator.main_campaign(repetitions=2)


@pytest.fixture(scope="session")
def small_features(small_corpus):
    """Full-registry feature matrix of the small corpus."""
    return compute_features(small_corpus)


@pytest.fixture(scope="session")
def gesture_recording(sampler):
    """One clean circle recording at 22 mm."""
    spec = GestureSpec(name="circle", distance_mm=22.0)
    traj = synthesize_gesture(spec, rng=7)
    amb = indoor_ambient().irradiance(traj.times_s, rng=7)
    scene = scene_for_trajectory(traj, ambient_mw_mm2=amb, rng=7)
    return sampler.record(scene, rng=7, label="circle", meta=traj.meta)


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(123)
