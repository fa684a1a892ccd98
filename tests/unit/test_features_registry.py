"""Unit tests for the feature registry and extractor."""

import numpy as np
import pytest

from repro.features.extractor import FeatureExtractor, extract_feature_matrix
from repro.features.registry import (
    BOLD_FAMILIES,
    FAMILY_NAMES,
    all_feature_names,
    bold_feature_names,
    family_of,
    feature_registry,
)


class TestRegistry:
    def test_25_families(self):
        assert len(FAMILY_NAMES) == 25

    def test_every_family_has_a_feature(self):
        covered = {s.family for s in feature_registry()}
        assert covered == set(FAMILY_NAMES)

    def test_unique_names(self):
        names = all_feature_names()
        assert len(set(names)) == len(names)

    def test_nine_bold_families(self):
        assert len(BOLD_FAMILIES) == 9
        assert set(BOLD_FAMILIES) <= set(FAMILY_NAMES)

    def test_bold_features_flagged(self):
        for spec in feature_registry():
            assert spec.bold == (spec.family in BOLD_FAMILIES)

    def test_family_of(self):
        assert family_of("standard_deviation") == "standard_deviation"
        assert family_of("quantile__q=0.5") == "quantile"
        with pytest.raises(KeyError):
            family_of("nope")

    def test_frequency_features_tagged(self):
        cats = {s.family: s.category for s in feature_registry()}
        assert cats["fft"] == "frequency"
        assert cats["cwt"] == "frequency"
        assert cats["variance"] == "time"

    def test_compute_always_finite(self):
        bad = np.array([1.0, np.nan, np.inf])
        for spec in feature_registry():
            assert np.isfinite(spec.compute(bad))


class TestFeatureExtractor:
    def test_full_covers_registry(self):
        ext = FeatureExtractor.full()
        assert ext.n_features == len(feature_registry())

    def test_bold_subset(self):
        ext = FeatureExtractor.bold()
        assert set(ext.names) == set(bold_feature_names())
        assert all(f in BOLD_FAMILIES for f in ext.families)

    def test_for_families(self):
        ext = FeatureExtractor.for_families(["quantile", "fft"])
        assert set(ext.families) == {"quantile", "fft"}
        with pytest.raises(ValueError):
            FeatureExtractor.for_families(["not_a_family"])

    def test_for_names(self):
        ext = FeatureExtractor.for_names(["variance", "standard_deviation"])
        assert ext.names == ("variance", "standard_deviation")
        with pytest.raises(KeyError):
            FeatureExtractor.for_names(["missing"])
        # an empty list is an error, not the full registry
        with pytest.raises(ValueError):
            FeatureExtractor.for_names([])

    def test_extract_vector_shape(self):
        ext = FeatureExtractor.full()
        x = np.random.default_rng(0).random(120)
        v = ext.extract(x)
        assert v.shape == (ext.n_features,)
        assert np.all(np.isfinite(v))

    def test_extract_many(self):
        ext = FeatureExtractor.bold()
        signals = [np.random.default_rng(i).random(50 + i) for i in range(4)]
        X = ext.extract_many(signals)
        assert X.shape == (4, ext.n_features)

    def test_extract_many_empty(self):
        X = FeatureExtractor.bold().extract_many([])
        assert X.shape[0] == 0

    def test_deterministic(self):
        ext = FeatureExtractor.full()
        x = np.random.default_rng(5).random(80)
        np.testing.assert_array_equal(ext.extract(x), ext.extract(x))

    def test_helper(self):
        signals = [np.random.default_rng(i).random(60) for i in range(3)]
        X, names = extract_feature_matrix(signals)
        assert X.shape == (3, len(names))
