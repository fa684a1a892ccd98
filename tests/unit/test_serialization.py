"""Unit tests for model serialization and stack persistence."""

import numpy as np
import pytest

from repro.core.detector import DetectAimedRecognizer
from repro.core.interference import InterferenceFilter
from repro.core.config import AirFingerConfig
from repro.core.persistence import load_stack, save_stack
from repro.features.extractor import FeatureExtractor
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.naive_bayes import BernoulliNaiveBayes
from repro.ml.serialize import deserialize_model, serialize_model
from repro.ml.tree import DecisionTreeClassifier
from tests.golden.classify_cases import load_model_pin, unpack


def _data(seed=0, n=60):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = np.where(X[:, 1] > 0.5, "hi", "lo")
    return X, y


class TestModelRoundTrips:
    @pytest.mark.parametrize("factory", [
        lambda: DecisionTreeClassifier(max_depth=6, random_state=1),
        lambda: RandomForestClassifier(n_estimators=8, random_state=1),
        lambda: LogisticRegressionClassifier(max_iter=60),
        BernoulliNaiveBayes,
    ])
    def test_identical_predictions(self, factory):
        X, y = _data()
        model = factory().fit(X, y)
        clone = deserialize_model(serialize_model(model))
        X_test, _ = _data(seed=9, n=40)
        np.testing.assert_array_equal(model.predict(X_test),
                                      clone.predict(X_test))
        np.testing.assert_allclose(model.predict_proba(X_test),
                                   clone.predict_proba(X_test))

    def test_json_compatible(self):
        import json
        X, y = _data()
        model = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        text = json.dumps(serialize_model(model))
        clone = deserialize_model(json.loads(text))
        np.testing.assert_array_equal(model.predict(X), clone.predict(X))

    def test_integer_labels_roundtrip(self):
        X, _ = _data()
        y = (X[:, 0] > 0.5).astype(int) * 10
        model = DecisionTreeClassifier().fit(X, y)
        clone = deserialize_model(serialize_model(model))
        assert clone.predict(X).dtype.kind in ("i", "u")
        np.testing.assert_array_equal(model.predict(X), clone.predict(X))

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            serialize_model(DecisionTreeClassifier())

    def test_unknown_payload_rejected(self):
        with pytest.raises(ValueError):
            deserialize_model({"kind": "neural_net"})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            serialize_model(object())


class TestModelFormatPin:
    """A payload written by an earlier build (``tests/golden/model_pin.json``)
    must load, predict bit for bit, and re-save unchanged."""

    @pytest.fixture(scope="class")
    def pin(self):
        return load_model_pin()

    def test_pinned_payload_predicts_bit_for_bit(self, pin):
        model = deserialize_model(pin["payload"])
        rows = np.stack([unpack(r) for r in pin["rows"]])
        expected = np.stack([unpack(p) for p in pin["proba"]])
        proba = model.predict_proba(rows)
        assert np.array_equal(proba.view(np.uint64),
                              expected.view(np.uint64))
        for i, row in enumerate(rows):
            one = model.predict_proba(row[None, :])
            assert np.array_equal(one[0].view(np.uint64),
                                  expected[i].view(np.uint64))

    def test_trees_load_on_their_own(self, pin):
        forest = deserialize_model(pin["payload"])
        rows = np.stack([unpack(r) for r in pin["rows"]])
        for tree_payload, tree in zip(pin["payload"]["trees"],
                                      forest.estimators_):
            alone = deserialize_model(tree_payload)
            assert np.array_equal(alone.predict_proba(rows),
                                  tree.predict_proba(rows))

    def test_resave_is_a_fixed_point(self, pin):
        import json
        payload = pin["payload"]
        resaved = serialize_model(deserialize_model(payload))
        assert resaved == payload
        assert json.dumps(resaved) == json.dumps(payload)


class TestStackPersistence:
    @pytest.fixture()
    def trained(self):
        rng = np.random.default_rng(0)
        t = np.arange(100) / 100.0
        signals, labels, flags = [], [], []
        for i in range(12):
            slow = np.abs(np.sin(2 * np.pi * 1.0 * t)) * 40 + rng.exponential(0.4, 100)
            fast = np.abs(np.sin(2 * np.pi * 6.0 * t)) * 40 + rng.exponential(0.4, 100)
            signals += [slow, fast]
            labels += ["circle", "rub"]
            flags += [True, i % 3 != 0]
        detector = DetectAimedRecognizer().fit(signals, labels)
        filt = InterferenceFilter().fit(signals, flags)
        return detector, filt, signals

    def test_roundtrip(self, trained, tmp_path):
        detector, filt, signals = trained
        path = tmp_path / "stack.json"
        save_stack(path, detector=detector, interference_filter=filt,
                   config=AirFingerConfig())
        loaded = load_stack(path)
        np.testing.assert_array_equal(loaded["detector"].predict(signals),
                                      detector.predict(signals))
        np.testing.assert_array_equal(
            loaded["interference_filter"].predict_is_gesture(signals),
            filt.predict_is_gesture(signals))
        assert loaded["config"] == AirFingerConfig()
        assert loaded["engine"].detector is loaded["detector"]

    def test_detector_only(self, trained, tmp_path):
        detector, _, signals = trained
        path = tmp_path / "d.json"
        save_stack(path, detector=detector)
        loaded = load_stack(path)
        assert loaded["interference_filter"] is None
        assert loaded["detector"] is not None

    def test_nothing_to_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_stack(tmp_path / "x.json")

    def test_unfitted_detector_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_stack(tmp_path / "x.json",
                       detector=DetectAimedRecognizer())

    @pytest.mark.parametrize("names", [["variance"], []])
    def test_extractor_model_width_mismatch_refused_at_load(
            self, trained, tmp_path, names):
        import json
        _, _, signals = trained
        detector = DetectAimedRecognizer(
            extractor=FeatureExtractor.for_names(
                ["variance", "standard_deviation"]),
            model_factory=lambda: RandomForestClassifier(
                n_estimators=4, random_state=0))
        detector.fit(signals, ["circle", "rub"] * (len(signals) // 2))
        path = tmp_path / "stack.json"
        save_stack(path, detector=detector)
        assert load_stack(path)["detector"].predict_one(signals[0])
        payload = json.loads(path.read_text())
        payload["detector"]["extractor"]["names"] = names
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_stack(path)

    def test_filter_width_mismatch_refused_at_load(self, trained, tmp_path):
        import json
        _, filt, _ = trained
        path = tmp_path / "stack.json"
        save_stack(path, interference_filter=filt)
        payload = json.loads(path.read_text())
        payload["interference_filter"]["extractor"]["names"] = ["variance"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="interference_filter"):
            load_stack(path)

    def test_version_checked(self, trained, tmp_path):
        import json
        detector, _, _ = trained
        path = tmp_path / "stack.json"
        save_stack(path, detector=detector)
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_stack(path)
