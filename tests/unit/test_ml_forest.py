"""Unit tests for the random forest."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier


def _dataset(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 5))
    y = np.where(X[:, 0] + 0.3 * X[:, 1] > 0.65, "pos", "neg")
    return X, y


class TestForest:
    def test_fits_and_scores(self):
        X, y = _dataset(300)
        forest = RandomForestClassifier(n_estimators=30, random_state=1)
        forest.fit(X, y)
        assert forest.score(X, y) > 0.95

    def test_deterministic_given_seed(self):
        X, y = _dataset(100)
        a = RandomForestClassifier(n_estimators=10, random_state=3).fit(X, y)
        b = RandomForestClassifier(n_estimators=10, random_state=3).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))
        np.testing.assert_allclose(a.feature_importances_,
                                   b.feature_importances_)

    def test_seed_changes_model(self):
        X, y = _dataset(100)
        a = RandomForestClassifier(n_estimators=10, random_state=3).fit(X, y)
        b = RandomForestClassifier(n_estimators=10, random_state=4).fit(X, y)
        assert not np.allclose(a.feature_importances_, b.feature_importances_)

    def test_proba_shape_and_normalization(self):
        X, y = _dataset(100)
        forest = RandomForestClassifier(n_estimators=10, random_state=1)
        proba = forest.fit(X, y).predict_proba(X)
        assert proba.shape == (100, 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_importances_informative(self):
        X, y = _dataset(400)
        forest = RandomForestClassifier(n_estimators=40, random_state=1)
        forest.fit(X, y)
        assert int(np.argmax(forest.feature_importances_)) == 0
        np.testing.assert_allclose(forest.feature_importances_.sum(), 1.0,
                                   rtol=1e-9)

    def test_oob_score_reasonable(self):
        X, y = _dataset(400)
        forest = RandomForestClassifier(n_estimators=40, oob_score=True,
                                        random_state=1)
        forest.fit(X, y)
        assert forest.oob_score_ is not None
        assert forest.oob_score_ > 0.85

    def test_no_bootstrap_mode(self):
        X, y = _dataset(100)
        forest = RandomForestClassifier(n_estimators=5, bootstrap=False,
                                        random_state=1)
        assert forest.fit(X, y).score(X, y) > 0.95

    def test_class_columns_stable_with_rare_class(self):
        # a class so rare that bootstraps frequently miss it entirely
        rng = np.random.default_rng(5)
        X = rng.random((60, 3))
        y = np.array(["common"] * 57 + ["rare"] * 3)
        forest = RandomForestClassifier(n_estimators=25, random_state=2)
        proba = forest.fit(X, y).predict_proba(X)
        assert proba.shape == (60, 2)
        assert list(forest.classes_) == ["common", "rare"]
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_multiclass_labels_preserved(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(c, 0.3, (30, 2)) for c in (0, 2, 4)])
        y = np.repeat([10, 20, 30], 30)
        forest = RandomForestClassifier(n_estimators=15, random_state=1)
        pred = forest.fit(X, y).predict(X)
        assert set(pred) <= {10, 20, 30}

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((2, 2)))

    def test_feature_count_checked(self):
        X, y = _dataset(60)
        forest = RandomForestClassifier(n_estimators=5, random_state=1)
        forest.fit(X, y)
        for width in (4, 6):
            with pytest.raises(ValueError, match="features"):
                forest.predict_proba(np.zeros((2, width)))
        with pytest.raises(ValueError, match="features"):
            forest.predict(np.zeros((1, 1)))

    def test_refit_trees_are_not_served_stale(self):
        X, y = _dataset(80)
        forest = RandomForestClassifier(n_estimators=4, random_state=1)
        before = forest.fit(X, y).predict_proba(X)
        forest.estimators_[0].fit(X, np.where(y == "pos", "neg", "pos"))
        after = forest.predict_proba(X)
        expected = sum(t.predict_proba(X) for t in forest.estimators_) / 4
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)
