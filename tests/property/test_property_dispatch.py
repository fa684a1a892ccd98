"""Sweep statistics, onsets, classify and ZEBRA against the parent code.

:mod:`tests.golden.dispatch_reference` keeps the implementations the
engine ran before the live-dispatch memo and the leaner sweep/onset math.
Random ``(n, C)`` slices — ``n`` from 0 to 600, ``C`` from 1 to 5, with
NaN, ±inf, signed zeros, denormals and ties mixed in — must give the
same float bits, onsets, rule and tree labels and :class:`TrackResult`,
whether each call gets a plain array or all of them share one
:class:`~repro.core.dispatcher.SweepSlice`; ``find_ascending_point``
must find the parent's ascending points, and the sort-based floor
quantile must equal ``fast_quantile`` — the sign of a zero and NaN
included — although a sort and a partition pick differently among
signed zeros.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AirFingerConfig
from repro.core.dispatcher import (
    GestureDispatcher,
    SweepSlice,
    _low_quantile,
    onset_times,
    sweep_statistics,
)
from repro.core.zebra import ZebraTracker, find_ascending_point
from tests.golden.dispatch_cases import (
    adversarial_slices,
    outcome,
    stats_bits,
)
from tests.golden.dispatch_reference import (
    _ascending_index,
    onset_times as reference_onset_times,
    reference_classify,
    reference_track,
    sweep_statistics as reference_sweep_statistics,
)
from repro.utils import fast_quantile

CONFIG = AirFingerConfig()
RATE = CONFIG.sample_rate_hz
SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300)


@pytest.fixture(scope="module")
def tree() -> GestureDispatcher:
    """A depth-3 dispatcher calibrated on the adversarial slices that
    have finite statistics, labelled by the rule."""
    rule = GestureDispatcher(CONFIG)
    segments, labels = [], []
    with np.errstate(all="ignore"):
        for rss in adversarial_slices().values():
            if np.isfinite(rule.statistics(rss).as_vector()).all():
                segments.append(rss)
                labels.append(rule.classify(rss, 1.0))
    return GestureDispatcher(CONFIG).calibrate(segments, labels)


@st.composite
def slices(draw):
    n = draw(st.integers(min_value=0, max_value=600))
    channels = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from(
        ["gesture", "noise", "ties", "constant", "zeros", "denormals"]))
    if base == "gesture":
        t = np.arange(n)[:, None]
        centres = rng.uniform(0, max(n, 1), channels)
        widths = rng.uniform(1.0, max(n / 6, 2.0), channels)
        rss = 150.0 + rng.uniform(5, 120, channels) * np.exp(
            -0.5 * ((t - centres) / widths) ** 2)
        rss = rss + rng.normal(0.0, 0.3, (n, channels))
    elif base == "noise":
        rss = rng.normal(0.0, rng.uniform(0.01, 100.0), (n, channels))
    elif base == "ties":
        rss = rng.integers(0, 3, (n, channels)).astype(np.float64)
    elif base == "constant":
        rss = np.full((n, channels), float(rng.normal(0.0, 50.0)))
    elif base == "zeros":
        rss = np.where(rng.random((n, channels)) < 0.5, 0.0, -0.0)
    else:
        rss = rng.integers(0, 50, (n, channels)) * 5e-324
    specials = draw(st.lists(st.sampled_from(SPECIALS), max_size=3))
    rate = draw(st.sampled_from([0.0, 0.01, 0.2]))
    for value in specials:
        rss[rng.random((n, channels)) < rate] = value
    gate = draw(st.sampled_from([0.0, 1.0, 40.0, 1e-300]))
    return rss, gate


@given(slices())
@settings(max_examples=150, deadline=None)
def test_bit_identical_to_parent(tree, case):
    rss, gate = case
    rule = GestureDispatcher(CONFIG)
    tracker = ZebraTracker(CONFIG)
    with np.errstate(all="ignore"):
        expected = {
            "stats": stats_bits(reference_sweep_statistics(rss, RATE)),
            "onsets": outcome(lambda: reference_onset_times(
                rss, RATE, gate, sbc_window=CONFIG.sbc_window_samples)),
            "rule": outcome(lambda: reference_classify(rule, rss, gate)),
            "tree": outcome(lambda: reference_classify(tree, rss, gate)),
            "track": outcome(lambda: reference_track(tracker, rss, gate)),
        }
        plain = {
            "stats": stats_bits(sweep_statistics(rss, RATE)),
            "onsets": outcome(lambda: onset_times(
                rss, RATE, gate, sbc_window=CONFIG.sbc_window_samples)),
            "rule": outcome(lambda: rule.classify(rss, gate)),
            "tree": outcome(lambda: tree.classify(rss, gate)),
            "track": outcome(lambda: tracker.track(rss, gate)),
        }
        # the engine's order: classify, then track, on one memo
        shared = SweepSlice(rss)
        memo = {
            "rule": outcome(lambda: rule.classify(shared, gate)),
            "tree": outcome(lambda: tree.classify(shared, gate)),
            "track": outcome(lambda: tracker.track(shared, gate)),
            "stats": stats_bits(shared.statistics(RATE)),
            "onsets": outcome(lambda: list(shared.onsets(
                RATE, gate, CONFIG.sbc_window_samples))),
        }
    assert plain == expected
    assert memo == expected


@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, np.nan, np.inf]),
                max_size=40),
       st.sampled_from([0.0, 0.5, 1.0, np.nan]))
@settings(max_examples=150, deadline=None)
def test_find_ascending_point_matches_parent(values, level):
    signal = np.array(values, dtype=np.float64)
    idx = _ascending_index(signal, level)
    assert find_ascending_point(signal, level, 100.0) == (
        None if idx is None else idx / 100.0)


@given(st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0, 5e-324,
                              np.nan, np.inf, -np.inf]),
             min_size=4, max_size=300),
    # signed zeros as the lowest values, where the two order statistics
    # can both be zeros of different signs
    st.lists(st.sampled_from([0.0, -0.0, 0.0, -0.0, 2.0]),
             min_size=4, max_size=40)))
@settings(max_examples=300, deadline=None)
def test_floor_quantile_is_fast_quantile(values):
    column = np.array(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        got, expected = _low_quantile(column), fast_quantile(column, 0.1)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
