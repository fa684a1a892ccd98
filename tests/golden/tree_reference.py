"""The parent CART split search: one feature at a time.

:class:`ReferenceDecisionTreeClassifier` carries the ``_grow`` and
``_best_split`` the trees ran before the split search became one numpy
pass over all of a node's candidate features, with the ``_gini`` they
called, kept verbatim as the reference that
``tests/property/test_property_tree.py`` and
``benchmarks/test_forest_fit.py`` hold today's
:mod:`repro.ml.tree` to, bit for bit.  Only the imports, the subclass
around the two methods, :func:`reference_trees` (a forest grows these
trees inside it), :func:`tree_bytes` (what "the same tree" means),
:func:`perf_training_plan` (the repo benchmark's training campaign, whose
scenes ``benchmarks/test_optics_batch.py`` times too) and
:func:`perf_training_set` (the matrix both check on) are new.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.features.extractor import FeatureExtractor
from repro.ml import forest
from repro.ml.tree import DecisionTreeClassifier


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


class ReferenceDecisionTreeClassifier(DecisionTreeClassifier):
    """:class:`DecisionTreeClassifier` with the parent's split search."""

    def _grow(self, X: np.ndarray, codes: np.ndarray, weights: np.ndarray,
              n_classes: int, depth: int, rng: np.random.Generator,
              nodes: tuple[list, ...]) -> int:
        """Grow the subtree of these rows into the pre-order node lists
        ``(feature, threshold, left, right, counts)``; returns its root."""
        features, thresholds, lefts, rights, all_counts = nodes
        node = len(features)
        counts = self._class_counts(codes, weights, n_classes)
        features.append(-1)
        thresholds.append(0.0)
        lefts.append(-1)
        rights.append(-1)
        all_counts.append(counts)
        n_eff = weights.sum()
        if (len(X) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or _gini(counts) <= 1e-12):
            return node

        best = self._best_split(X, codes, weights, counts, rng)
        if best is None:
            return node
        feature, threshold, gain, left_mask = best
        features[node] = feature
        thresholds[node] = threshold
        self.feature_importances_[feature] += gain * n_eff
        lefts[node] = self._grow(X[left_mask], codes[left_mask],
                                 weights[left_mask], n_classes, depth + 1,
                                 rng, nodes)
        rights[node] = self._grow(X[~left_mask], codes[~left_mask],
                                  weights[~left_mask], n_classes, depth + 1,
                                  rng, nodes)
        return node

    def _best_split(self, X: np.ndarray, codes: np.ndarray,
                    weights: np.ndarray, counts: np.ndarray,
                    rng: np.random.Generator):
        n, f_total = X.shape
        k = self._n_candidate_features()
        if k < f_total:
            candidates = rng.choice(f_total, size=k, replace=False)
        else:
            candidates = np.arange(f_total)
        parent_gini = _gini(counts)
        total_w = weights.sum()
        n_classes = len(counts)
        best_gain = 1e-12
        best = None
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), codes] = weights
        for f in candidates:
            col = X[:, f]
            order = np.argsort(col, kind="stable")
            sorted_col = col[order]
            # cumulative weighted class counts left of each split position
            cum = np.cumsum(onehot[order], axis=0)
            w_left = cum.sum(axis=1)
            w_right = total_w - w_left
            # valid split positions: value changes and both sides non-trivial
            distinct = sorted_col[1:] != sorted_col[:-1]
            pos = np.nonzero(distinct)[0]
            if pos.size == 0:
                continue
            # enforce min_samples_leaf in raw sample counts
            raw_left = np.arange(1, n)
            ok = ((raw_left[pos - 0] >= self.min_samples_leaf)
                  & ((n - raw_left[pos - 0]) >= self.min_samples_leaf))
            pos = pos[ok]
            if pos.size == 0:
                continue
            left_counts = cum[pos]
            right_counts = counts - left_counts
            wl = w_left[pos]
            wr = w_right[pos]
            valid = (wl > 0) & (wr > 0)
            if not valid.any():
                continue
            pl = left_counts / np.maximum(wl[:, None], 1e-300)
            pr = right_counts / np.maximum(wr[:, None], 1e-300)
            gini_l = 1.0 - np.sum(pl * pl, axis=1)
            gini_r = 1.0 - np.sum(pr * pr, axis=1)
            child = (wl * gini_l + wr * gini_r) / total_w
            gain = parent_gini - child
            gain[~valid] = -np.inf
            j = int(np.argmax(gain))
            if gain[j] > best_gain:
                split_idx = pos[j]
                threshold = 0.5 * (sorted_col[split_idx] + sorted_col[split_idx + 1])
                left_mask = col <= threshold
                # guard against numerically degenerate thresholds
                if left_mask.all() or not left_mask.any():
                    continue
                best_gain = float(gain[j])
                best = (int(f), float(threshold), best_gain, left_mask)
        return best


@contextmanager
def reference_trees():
    """Within this block :class:`~repro.ml.forest.RandomForestClassifier`
    grows :class:`ReferenceDecisionTreeClassifier` trees."""
    tree = forest.DecisionTreeClassifier
    forest.DecisionTreeClassifier = ReferenceDecisionTreeClassifier
    try:
        yield
    finally:
        forest.DecisionTreeClassifier = tree


def tree_bytes(tree: DecisionTreeClassifier) -> tuple[bytes, ...]:
    """The bytes of a fitted tree's :class:`~repro.ml.tree.FlatTree`
    arrays and its ``feature_importances_``: equal exactly when two
    trees are identical bit for bit."""
    flat = tree.tree_
    return (flat.feature.tobytes(), flat.threshold.tobytes(),
            flat.left.tobytes(), flat.right.tobytes(),
            flat.counts.tobytes(), tree.feature_importances_.tobytes())


def perf_training_plan():
    """``(generator, tasks)`` of ``benchmarks/perf/harness.train_detector``'s
    campaign: 3 users x 1 session x 4 repetitions of the fixed
    population under the ``perf-train`` condition."""
    perf = str(Path(__file__).resolve().parents[2] / "benchmarks" / "perf")
    if perf not in sys.path:
        sys.path.append(perf)
    import harness

    generator = harness.population(3)
    return generator, [replace(task, condition=harness.TRAINING_CONDITION)
                       for task in generator.plan_main_campaign(
                           users=range(3), sessions=[0], repetitions=4)]


def perf_training_set() -> tuple[np.ndarray, np.ndarray]:
    """The full-registry features and labels the repo benchmark's
    detector trains on: :func:`perf_training_plan`'s campaign,
    detect-aimed segments only."""
    generator, tasks = perf_training_plan()
    detect = generator.run_tasks(tasks).filter(
        lambda s: not s.is_track_aimed)
    return (FeatureExtractor.full().extract_many(detect.signals()),
            np.asarray(detect.labels))
