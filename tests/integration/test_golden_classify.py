"""Golden classification traces: features, forest and detector events.

The committed ``tests/golden/classify_traces.json`` freezes segment
classification bit for bit (see :mod:`tests.golden.classify_cases`):

* the full-registry feature matrix of the signals the golden stream
  cases hand the detector and of adversarial signals;
* the golden forest's probabilities on those rows;
* each golden stream case's event trace with the detector attached.

Every comparison is on float64 bits (``view(np.uint64)``) or on exact
``repr`` lines, so a change in the sign of a zero fails it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.features.extractor import FeatureExtractor
from tests.golden.classify_cases import (
    golden_signals,
    load_traces,
    run_stream_cases,
    train_detector,
    unpack,
)
from tests.golden.stream_cases import STREAM_CASES


@pytest.fixture(scope="module")
def golden():
    return load_traces()


@pytest.fixture(scope="module")
def detector():
    return train_detector()


@pytest.fixture(scope="module")
def replayed(detector):
    return run_stream_cases(detector)


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _committed(golden, key: str) -> np.ndarray:
    return np.stack([unpack(golden[key][n]) for n in golden["features"]])


class TestFeatureBits:
    def test_covers_segments_and_adversarial_signals(self, golden):
        signals = golden_signals(golden)
        assert sum("/" in name for name in signals) >= 20
        lengths = {signal.size for signal in signals.values()}
        assert {0, 1, 2, 3, 4, 5, 6, 7, 8, 4001} <= lengths

    def test_overflow_scale_signals(self, golden):
        """Signals whose squares overflow extract to finite vectors, with
        no floating-point warning (the suite raises on one) and no LAPACK
        failure."""
        signals = golden_signals(golden)
        huge = [name for name, signal in signals.items()
                if signal.size and np.abs(signal).max() >= 1e280]
        assert len(huge) >= 3
        X = FeatureExtractor.full().extract_many([signals[n] for n in huge])
        assert np.isfinite(X).all()

    def test_full_registry_matrix(self, golden):
        signals = golden_signals(golden)
        X = FeatureExtractor.full().extract_many(list(signals.values()))
        expected = _committed(golden, "features")
        for i, name in enumerate(signals):
            assert np.array_equal(_bits(X[i]), _bits(expected[i])), name

    def test_single_extract_matches_batch(self, golden):
        extractor = FeatureExtractor.full()
        expected = _committed(golden, "features")
        for i, signal in enumerate(golden_signals(golden).values()):
            assert np.array_equal(_bits(extractor.extract(signal)),
                                  _bits(expected[i]))


class TestForestBits:
    def test_classes(self, golden, detector):
        assert [str(c) for c in detector.model_.classes_] == golden["classes"]

    def test_predict_proba_matrix(self, golden, detector):
        proba = detector.model_.predict_proba(_committed(golden, "features"))
        assert np.array_equal(_bits(proba), _bits(_committed(golden, "proba")))

    def test_predict_proba_row_by_row(self, golden, detector):
        X = _committed(golden, "features")
        expected = _committed(golden, "proba")
        for i in range(len(X)):
            proba = detector.model_.predict_proba(X[i:i + 1])[0]
            assert np.array_equal(_bits(proba), _bits(expected[i]))


class TestDetectorEvents:
    def test_every_case_committed(self, golden):
        assert sorted(golden["events"]) == sorted(c[0] for c in STREAM_CASES)
        lines = [l for ls in golden["events"].values() for l in ls]
        assert sum(l.startswith("GestureEvent(") for l in lines) >= 20

    def test_detector_inputs_unchanged(self, golden, replayed):
        _, signals = replayed
        assert list(signals) == list(golden["signals"])
        for name, signal in signals.items():
            assert np.array_equal(_bits(signal),
                                  _bits(unpack(golden["signals"][name])))

    def test_event_traces(self, golden, replayed):
        events, _ = replayed
        for name, lines in golden["events"].items():
            assert events[name] == lines, (
                f"detector events drifted on golden stream {name!r}")
