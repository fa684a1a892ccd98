"""Property-based tests for the ML substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.metrics import accuracy_score, confusion_matrix, per_class_recall
from repro.ml.model_selection import StratifiedKFold, train_test_split
from repro.ml.naive_bayes import BernoulliNaiveBayes
from repro.ml.tree import DecisionTreeClassifier


@st.composite
def datasets(draw, max_n=60, max_f=5):
    n = draw(st.integers(min_value=8, max_value=max_n))
    f = draw(st.integers(min_value=1, max_value=max_f))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, f))
    y = np.array(["a"] * (n // 2) + ["b"] * (n - n // 2))
    return X, y


@given(datasets())
@settings(max_examples=25, deadline=None)
def test_tree_predictions_are_known_labels(data):
    X, y = data
    tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
    assert set(tree.predict(X)) <= set(y)


@given(datasets())
@settings(max_examples=15, deadline=None)
def test_forest_proba_valid_distribution(data):
    X, y = data
    forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
    proba = forest.predict_proba(X)
    assert np.all(proba >= -1e-12)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=1e-9)


@given(datasets(), st.integers(min_value=1, max_value=12),
       st.sampled_from([1, 2, 3, None]), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_stacked_forest_equals_mean_of_trees_bitwise(data, n_trees, depth,
                                                      leaf, seed):
    """The joint descent sums leaf probabilities in tree order: exactly
    the mean of the trees' own ``predict_proba``, for batches and rows.
    Shallow trees and large leaves keep leaf probabilities fractional,
    where the summation order shows in the last bits."""
    X, y = data
    forest = RandomForestClassifier(n_estimators=n_trees, max_depth=depth,
                                    min_samples_leaf=leaf,
                                    random_state=seed).fit(X, y)
    queries = np.random.default_rng(seed).normal(0, 1.5, (9, X.shape[1]))
    for rows in (X, queries):
        acc = np.zeros((len(rows), len(forest.classes_)))
        for tree in forest.estimators_:
            acc += tree.predict_proba(rows)
        expected = acc / n_trees
        got = forest.predict_proba(rows)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        for i in range(len(rows)):
            one = forest.predict_proba(rows[i:i + 1])[0]
            assert np.array_equal(one.view(np.uint64),
                                  expected[i].view(np.uint64))


@given(datasets())
@settings(max_examples=15, deadline=None)
def test_logistic_proba_valid(data):
    X, y = data
    model = LogisticRegressionClassifier(max_iter=30).fit(X, y)
    proba = model.predict_proba(X)
    assert np.all(proba > 0)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=1e-9)


@given(datasets())
@settings(max_examples=25, deadline=None)
def test_nb_thresholds_match_median(data):
    X, y = data
    model = BernoulliNaiveBayes().fit(X, y)
    np.testing.assert_allclose(model.thresholds_, np.median(X, axis=0))


@given(st.integers(min_value=4, max_value=200),
       st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=50, deadline=None)
def test_split_partitions(n, fraction):
    train, test = train_test_split(n, fraction, rng=0)
    assert sorted(list(train) + list(test)) == list(range(n))
    assert len(test) >= 1
    assert len(train) >= 1


@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=3, max_value=30))
@settings(max_examples=40, deadline=None)
def test_kfold_partitions(k, per_class):
    y = np.repeat(["a", "b"], per_class)
    if per_class < k:
        return  # folds would be degenerate; the splitter raises by design
    seen = []
    for train, test in StratifiedKFold(k, random_state=0).split(y):
        assert len(set(train) & set(test)) == 0
        seen.extend(test)
    assert sorted(seen) == list(range(len(y)))


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=60),
       st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_metric_bounds(y_true, y_pred):
    n = min(len(y_true), len(y_pred))
    y_true = np.array(y_true[:n])
    y_pred = np.array(y_pred[:n])
    assert 0.0 <= accuracy_score(y_true, y_pred) <= 1.0
    recalls = per_class_recall(y_true, y_pred)
    assert all(0.0 <= v <= 1.0 for v in recalls.values())
    _, matrix = confusion_matrix(y_true, y_pred)
    row_sums = matrix.sum(axis=1)
    assert np.all((np.isclose(row_sums, 1.0)) | (row_sums == 0.0))


@given(datasets())
@settings(max_examples=15, deadline=None)
def test_perfect_memorization_on_distinct_rows(data):
    X, y = data
    # make rows unique so a deep tree can memorize
    X = X + np.arange(len(X))[:, None] * 1e-6
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.score(X, y) == 1.0
