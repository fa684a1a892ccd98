"""The golden classification set: features, probabilities and events.

:mod:`tests.golden.stream_cases` freezes the pipeline's event sequence
with no detector attached, so nothing there pins segment classification.
This set does, in ``classify_traces.json``:

* ``signals`` — every ΔRSS² signal the five golden stream cases hand the
  detector, stored as float64 bytes;
* ``features`` — the full-registry feature vector of each of those and
  of the adversarial signals :func:`adversarial_signals` builds (lengths
  0–8, constant, signed zeros, NaN/±inf, denormals, heavy ties,
  4 001 samples, overflow scale), as float64 bytes;
* ``proba`` — :meth:`predict_proba` of the detector's forest, trained
  from a small fixed campaign (``random_state=7``), on those rows;
* ``events`` — each golden stream case's event ``repr`` trace with that
  detector attached.

``model_pin.json`` is the model-format pin: a ``serialize_model``
payload of a small forest with its probabilities on fixed rows, so
payloads written by earlier builds must keep loading, predicting and
re-saving unchanged.

Regenerate both with::

    PYTHONPATH=src python tests/golden/regenerate.py

but only when feature values, the forest or the model format are *meant*
to change — the diff is the review artifact.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from repro.core.detector import DetectAimedRecognizer
from repro.core.pipeline import AirFinger
from repro.datasets.generator import CampaignConfig, CampaignGenerator
from repro.features.extractor import FeatureExtractor
from repro.ml.forest import RandomForestClassifier
from repro.ml.serialize import serialize_model
from tests.golden.stream_cases import STREAM_SEED, build_stream_cases

CLASSIFY_TRACES_PATH = Path(__file__).parent / "classify_traces.json"
MODEL_PIN_PATH = Path(__file__).parent / "model_pin.json"

#: the training campaign: the stream cases' user population, 2 repetitions
TRAIN_CONFIG = CampaignConfig(n_users=3, n_sessions=1, repetitions=2,
                              seed=STREAM_SEED)
ADVERSARIAL_SEED = 1313


# ----------------------------------------------------------------------
# float64 arrays <-> JSON
# ----------------------------------------------------------------------
def pack(values) -> str:
    """Base64 of the little-endian float64 bytes: every bit, signs of
    zeros and NaN payloads included."""
    array = np.ascontiguousarray(values, dtype="<f8")
    return base64.b64encode(array.tobytes()).decode("ascii")


def unpack(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").astype(
        np.float64)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def train_detector() -> DetectAimedRecognizer:
    """The golden detector: full registry, 60 trees, ``random_state=7``,
    fitted on the detect-aimed gestures of :data:`TRAIN_CONFIG`."""
    corpus = CampaignGenerator(config=TRAIN_CONFIG).main_campaign()
    detect = corpus.filter(lambda s: not s.is_track_aimed)
    detector = DetectAimedRecognizer(
        model_factory=lambda: RandomForestClassifier(
            n_estimators=60, random_state=7))
    return detector.fit(detect.signals(), detect.labels)


def adversarial_signals() -> dict[str, np.ndarray]:
    """Inputs at the edges of every feature family's guards."""
    rng = np.random.default_rng(ADVERSARIAL_SEED)
    out: dict[str, np.ndarray] = {}
    for n in range(9):
        out[f"len_{n}"] = rng.normal(0.0, 30.0, n) ** 2
    out["constant"] = np.full(40, 3.25)
    out["signed_zeros"] = np.where(rng.random(32) < 0.5, 0.0, -0.0)
    zeros_and_spike = np.where(rng.random(48) < 0.5, 0.0, -0.0)
    zeros_and_spike[20] = 1.0
    out["signed_zeros_spike"] = zeros_and_spike
    noisy = rng.normal(0.0, 5.0, 64) ** 2
    noisy[[3, 17, 40]] = np.nan
    noisy[[9, 50]] = np.inf
    noisy[[25, 33]] = -np.inf
    out["nan_inf"] = noisy
    out["all_nan"] = np.full(12, np.nan)
    out["all_inf"] = np.full(12, np.inf)
    out["denormals"] = rng.integers(0, 50, 40) * 5e-324
    mixed = rng.normal(0.0, 1.0, 40) ** 2
    mixed[::3] = 5e-324
    out["denormals_mixed"] = mixed
    out["heavy_ties"] = rng.integers(0, 3, 90).astype(np.float64)
    out["ramp"] = np.arange(100, dtype=np.float64)
    spike = np.zeros(80)
    spike[37] = 250.0
    out["spike"] = spike
    out["alternating"] = np.tile([1.0, -1.0], 45)
    out["long_4001"] = rng.normal(0.0, 10.0, 4001) ** 2
    # overflow scale: squares, sums and products overflow, and the
    # differences of ±1.7e308 samples leave ADF's regression non-finite
    out["overflow_1e280"] = rng.uniform(0.0, 1e280, 48)
    out["overflow_1e300"] = rng.normal(0.0, 1.0, 48) ** 2 * 1e300
    out["overflow_signed_1e308"] = np.where(rng.random(48) < 0.5,
                                            1.7e308, -1.7e308)
    return out


class _Recorder:
    """Delegates :meth:`predict_one` to a detector, keeping each input."""

    def __init__(self, detector: DetectAimedRecognizer) -> None:
        self.detector = detector
        self.signals: list[np.ndarray] = []

    def predict_one(self, signal):
        self.signals.append(np.array(signal, dtype=np.float64))
        return self.detector.predict_one(signal)


def run_stream_cases(detector) -> tuple[dict[str, list[str]],
                                        dict[str, np.ndarray]]:
    """``(events, signals)``: each golden stream case fed frame by frame
    with *detector* attached, its event ``repr`` lines, and every signal
    the detector was handed (``"<case>/<k>"``)."""
    events: dict[str, list[str]] = {}
    signals: dict[str, np.ndarray] = {}
    for name, frames in build_stream_cases():
        recorder = _Recorder(detector)
        engine = AirFinger(detector=recorder)
        out = []
        for frame in frames:
            out.extend(engine.feed(frame))
        out.extend(engine.flush())
        events[name] = [repr(event) for event in out]
        for k, signal in enumerate(recorder.signals):
            signals[f"{name}/{k}"] = signal
    return events, signals


# ----------------------------------------------------------------------
# the committed traces
# ----------------------------------------------------------------------
def build_traces() -> dict:
    detector = train_detector()
    events, segments = run_stream_cases(detector)
    signals = {**segments, **adversarial_signals()}
    names = list(signals)
    X = FeatureExtractor.full().extract_many([signals[n] for n in names])
    proba = detector.model_.predict_proba(X)
    return {
        "classes": [str(c) for c in detector.model_.classes_],
        "signals": {n: pack(s) for n, s in segments.items()},
        "features": {n: pack(row) for n, row in zip(names, X)},
        "proba": {n: pack(row) for n, row in zip(names, proba)},
        "events": events,
    }


def golden_signals(traces: dict) -> dict[str, np.ndarray]:
    """Every signal of *traces*, in ``features`` order: the committed
    segment signals, and the adversarial ones rebuilt."""
    signals = {n: unpack(s) for n, s in traces["signals"].items()}
    signals.update(adversarial_signals())
    return {n: signals[n] for n in traces["features"]}


def load_traces() -> dict:
    with CLASSIFY_TRACES_PATH.open() as fh:
        return json.load(fh)


def write_traces(payload: dict) -> None:
    with CLASSIFY_TRACES_PATH.open("w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


# ----------------------------------------------------------------------
# model-format pin
# ----------------------------------------------------------------------
def pin_dataset() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(29)
    X = rng.normal(0.0, 1.0, (40, 4))
    y = np.where(X[:, 0] + 0.5 * X[:, 2] > 0.2, "tap",
                 np.where(X[:, 1] > 0.0, "rub", "circle"))
    return X, y


def build_model_pin() -> dict:
    X, y = pin_dataset()
    forest = RandomForestClassifier(n_estimators=6, max_depth=5,
                                    random_state=3).fit(X, y)
    rows = np.random.default_rng(31).normal(0.0, 1.2, (12, 4))
    return {"payload": serialize_model(forest),
            "rows": [pack(r) for r in rows],
            "proba": [pack(p) for p in forest.predict_proba(rows)]}


def load_model_pin() -> dict:
    with MODEL_PIN_PATH.open() as fh:
        return json.load(fh)


def write_model_pin(pin: dict) -> None:
    with MODEL_PIN_PATH.open("w") as fh:
        json.dump(pin, fh, indent=1)
        fh.write("\n")
