"""The one-pass split search against the parent's per-feature loop.

:mod:`tests.golden.tree_reference` keeps the ``_grow`` and
``_best_split`` trees ran before every candidate feature of a node was
scored in one numpy pass.  Each tree grown here must equal the
reference's bit for bit: every :class:`~repro.ml.tree.FlatTree` array
and ``feature_importances_``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from tests.golden.tree_reference import (
    ReferenceDecisionTreeClassifier,
    perf_training_set,
    reference_trees,
    tree_bytes,
)

#: ties, signed zeros, extreme magnitudes and a pair of neighbouring
#: floats whose midpoint rounds onto the larger (a degenerate threshold)
POOL = (0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), -1.0, 0.5, 2.5,
        1e-300, -1e-300, 1e300, -1e300)
#: fractional weights make the order of the cumulative sums show in
#: their bits, so a split search that sorts ties differently differs
FRACTIONS = (0.0, 0.1, 0.3, 1 / 3, 0.7, 2.9)


@st.composite
def fits(draw):
    """``(X, codes, weights, n_classes, params, slice_elements)``."""
    n = draw(st.integers(2, 60))
    f = draw(st.integers(1, 8))
    values = st.one_of(st.sampled_from(POOL),
                       st.floats(-4.0, 4.0, allow_nan=False, width=16))
    X = np.array(draw(st.lists(values, min_size=n * f, max_size=n * f)),
                 dtype=np.float64).reshape(n, f)
    if f > 1 and draw(st.booleans()):
        X[:, draw(st.integers(0, f - 1))] = draw(st.sampled_from(POOL))
    if f > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(f)))[:2]
        X[:, dst] = X[:, src]
    n_classes = draw(st.integers(2, 8))
    # a subset of the classes, so some are absent from the whole fit
    present = draw(st.lists(st.integers(0, n_classes - 1), min_size=1,
                            max_size=n_classes, unique=True))
    codes = np.array(draw(st.lists(st.sampled_from(present),
                                   min_size=n, max_size=n)))
    # bootstrap multiplicities with zeros, or fractional weights
    weight = st.one_of(st.integers(0, 4), st.sampled_from(FRACTIONS))
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)),
                       dtype=np.float64)
    weights[draw(st.integers(0, n - 1))] += 1.0
    params = dict(
        max_depth=draw(st.one_of(st.none(), st.integers(1, 8))),
        min_samples_leaf=draw(st.integers(1, 5)),
        max_features=draw(st.one_of(st.none(), st.just("sqrt"),
                                    st.integers(1, f + 1))),
        random_state=draw(st.integers(0, 2**31)))
    # small budgets split a node's candidates into many slices
    slice_elements = draw(st.sampled_from(
        (1, 7, 64, 500, tree_module._SLICE_ELEMENTS)))
    return X, codes, weights, n_classes, params, slice_elements


@given(fits())
@settings(max_examples=150, deadline=None)
def test_tree_matches_reference(case):
    X, codes, weights, n_classes, params, slice_elements = case
    budget = tree_module._SLICE_ELEMENTS
    tree_module._SLICE_ELEMENTS = slice_elements
    try:
        new = DecisionTreeClassifier(**params).fit(
            X, codes, sample_weight=weights, n_classes=n_classes)
    finally:
        tree_module._SLICE_ELEMENTS = budget
    ref = ReferenceDecisionTreeClassifier(**params).fit(
        X, codes, sample_weight=weights, n_classes=n_classes)
    assert tree_bytes(new) == tree_bytes(ref)


def test_degenerate_threshold_passes_to_the_next_candidate():
    """Column 0 separates the classes perfectly between 1 - 2**-53 and
    1.0, but that midpoint rounds to 1.0, the column's maximum, so every
    row would go left: the search skips it and splits on column 1."""
    below_one = np.nextafter(1.0, 0.0)
    X = np.array([[0.0, 0.0], [below_one, 1.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([0, 0, 1, 1])
    new = DecisionTreeClassifier().fit(X, y)
    assert new.tree_.feature[0] == 1
    ref = ReferenceDecisionTreeClassifier().fit(X, y)
    assert tree_bytes(new) == tree_bytes(ref)


def test_large_node_crosses_the_slice_budget():
    """At the real budget, the root's 12 candidate columns of 1500 rows
    and 8 classes take three slices."""
    rng = np.random.default_rng(23)
    X = np.round(rng.normal(size=(1500, 12)), 2)
    y = rng.integers(0, 8, 1500)
    assert 12 * 1500 * 8 > 2 * tree_module._SLICE_ELEMENTS
    new = DecisionTreeClassifier(max_depth=4).fit(X, y)
    ref = ReferenceDecisionTreeClassifier(max_depth=4).fit(X, y)
    assert new.tree_.n_nodes > 7
    assert tree_bytes(new) == tree_bytes(ref)


def test_benchmark_forest_matches_reference():
    """The repo benchmark's detector forest: 60 trees, ``random_state=7``,
    on its training matrix."""
    X, y = perf_training_set()
    new = RandomForestClassifier(n_estimators=60, random_state=7).fit(X, y)
    with reference_trees():
        ref = RandomForestClassifier(n_estimators=60, random_state=7).fit(X, y)
    assert all(type(t) is ReferenceDecisionTreeClassifier
               for t in ref.estimators_)
    for a, b in zip(new.estimators_, ref.estimators_, strict=True):
        assert tree_bytes(a) == tree_bytes(b)
    assert (new.feature_importances_.tobytes()
            == ref.feature_importances_.tobytes())
