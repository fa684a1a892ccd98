"""CART decision-tree classifier with Gini impurity.

A vectorized implementation: at each node the best split over a (possibly
random) feature subset is found by sorting each candidate column once and
scanning cumulative class counts, so split search costs
``O(F * n log n)`` per node rather than ``O(F * n^2)``.  All candidate
columns go through one numpy pass together (in slices of bounded size),
so a small node costs a few dozen numpy calls, not a few dozen per
feature.

A fitted tree is a :class:`FlatTree`: its nodes in pre-order as parallel
arrays, the layout :mod:`repro.ml.serialize` writes.  Prediction walks
every row down together, one numpy step per level; :class:`TreeStack`
does the same for many trees at once (the forest's inference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.ml.base import check_X, check_X_y, encode_labels
from repro.utils import ensure_rng

__all__ = ["DecisionTreeClassifier", "FlatTree", "TreeStack"]


@dataclass(frozen=True, eq=False)
class FlatTree:
    """A fitted tree as pre-order parallel arrays; node 0 is the root.

    Internal node ``i`` sends a row to ``left[i]`` when its value in
    column ``feature[i]`` is ``<= threshold[i]``, else to ``right[i]``;
    leaves have ``feature``, ``left`` and ``right`` all ``-1``.
    ``counts[i]`` is the weighted class histogram of the training rows
    that reached node ``i``.  Trees compare by identity.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_lists(cls, feature, threshold, left, right,
                   counts) -> "FlatTree":
        return cls(feature=np.asarray(feature, dtype=np.int64),
                   threshold=np.asarray(threshold, dtype=np.float64),
                   left=np.asarray(left, dtype=np.int64),
                   right=np.asarray(right, dtype=np.int64),
                   counts=np.asarray(counts, dtype=np.float64))

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    @cached_property
    def stack(self) -> "TreeStack":
        """This tree alone as a :class:`TreeStack`, built on first use."""
        return TreeStack([self])


class TreeStack:
    """Several trees' flat arrays concatenated for a joint descent.

    :meth:`leaf_proba` starts one cursor per (tree, row) at the trees'
    roots and advances all of them together, one numpy step per level;
    leaves point at themselves, so cursors that arrive early stay put.
    A leaf's probability is its normalized class histogram (uniform when
    the histogram is empty), exactly what a recursive descent returns.
    """

    def __init__(self, trees: Sequence[FlatTree]) -> None:
        sizes = [t.n_nodes for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        feature = np.concatenate([t.feature for t in trees])
        internal = feature >= 0
        nodes = np.arange(feature.size, dtype=np.int64)
        left = np.concatenate([t.left + r for t, r in zip(trees, self.roots)])
        right = np.concatenate([t.right + r for t, r in zip(trees, self.roots)])
        self.feature = np.where(internal, feature, 0)
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.left = np.where(internal, left, nodes)
        self.right = np.where(internal, right, nodes)
        counts = np.concatenate([t.counts for t in trees])
        totals = counts.sum(axis=1, keepdims=True)
        filled = totals[:, 0] > 0
        self.proba = counts / np.where(filled[:, None], totals, 1.0)
        self.proba[~filled] = 1.0 / counts.shape[1]
        # levels below the roots, i.e. steps of the deepest descent
        self.depth = 0
        level = self.roots[internal[self.roots]]
        while level.size:
            self.depth += 1
            level = np.concatenate([left[level], right[level]])
            level = level[internal[level]]

    def leaf_proba(self, X: np.ndarray) -> np.ndarray:
        """``(n_trees, len(X), n_classes)`` leaf probabilities."""
        n, width = X.shape
        values = X.ravel()
        offsets = np.arange(0, n * width, width)
        cursor = self.roots[:, None].repeat(n, axis=1)
        for _ in range(self.depth):
            go_left = (values[offsets + self.feature[cursor]]
                       <= self.threshold[cursor])
            cursor = np.where(go_left, self.left[cursor], self.right[cursor])
        return self.proba[cursor]


#: Elements of one ``(features, positions, classes)`` array of the split
#: search; a node's candidate features are scored in slices that fit.
_SLICE_ELEMENTS = 1 << 16


def _gini(counts: np.ndarray) -> float:
    total = np.add.reduce(counts)
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.add.reduce(p * p))


@dataclass
class DecisionTreeClassifier:
    """A CART classifier.

    Parameters
    ----------
    max_depth:
        Depth limit; ``None`` grows until pure or below minimum sizes.
    min_samples_split:
        Minimum node size eligible for splitting.
    min_samples_leaf:
        Minimum samples each child must keep.
    max_features:
        ``None`` (all), ``"sqrt"``, or an integer count of features sampled
        per node (this is the randomness a forest injects).
    random_state:
        Seed for the per-node feature subsampling.
    """

    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: int | str | None = None
    random_state: int | None = None

    classes_: np.ndarray = field(init=False, repr=False, default=None)
    n_features_: int = field(init=False, repr=False, default=0)
    feature_importances_: np.ndarray = field(init=False, repr=False, default=None)
    tree_: FlatTree | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")

    # ------------------------------------------------------------------
    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        n = int(self.max_features)
        if n < 1:
            raise ValueError(f"max_features must be >= 1, got {n}")
        return min(n, self.n_features_)

    def fit(self, X: np.ndarray, y: np.ndarray,
            sample_weight: np.ndarray | None = None,
            n_classes: int | None = None) -> "DecisionTreeClassifier":
        """Grow the tree on ``(X, y)``.

        ``sample_weight`` supports the forest's bootstrap-by-weights mode
        (integer multiplicities avoid materializing resampled matrices).
        When ``n_classes`` is given, ``y`` must already be integer codes in
        ``0..n_classes-1``; this keeps probability columns aligned across
        an ensemble even when a bootstrap misses a class entirely.
        """
        X, y = check_X_y(X, y)
        if n_classes is not None:
            if n_classes < 1:
                raise ValueError(f"n_classes must be >= 1, got {n_classes}")
            codes = np.asarray(y, dtype=np.int64)
            if codes.size and (codes.min() < 0 or codes.max() >= n_classes):
                raise ValueError(
                    f"pre-encoded labels must lie in [0, {n_classes}), "
                    f"got range [{codes.min()}, {codes.max()}]")
            self.classes_ = np.arange(n_classes)
        else:
            self.classes_, codes = encode_labels(y)
            n_classes = len(self.classes_)
        self.n_features_ = X.shape[1]
        if sample_weight is None:
            weights = np.ones(len(X), dtype=np.float64)
        else:
            weights = np.asarray(sample_weight, dtype=np.float64)
            if weights.shape != (len(X),):
                raise ValueError("sample_weight must have one entry per row")
            if np.any(weights < 0):
                raise ValueError("sample_weight must be non-negative")
        rng = ensure_rng(self.random_state)
        self.feature_importances_ = np.zeros(self.n_features_)
        active = weights > 0
        nodes: tuple[list, ...] = ([], [], [], [], [])
        self._grow(X[active], codes[active], weights[active],
                   n_classes, depth=0, rng=rng, nodes=nodes)
        self.tree_ = FlatTree.from_lists(*nodes)
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ = self.feature_importances_ / total
        return self

    def _class_counts(self, codes: np.ndarray, weights: np.ndarray,
                      n_classes: int) -> np.ndarray:
        return np.bincount(codes, weights=weights, minlength=n_classes)

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
        if (len(X) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)):
            return node
        gini = _gini(counts)
        if gini <= 1e-12:
            return node
        n_eff = np.add.reduce(weights)
        best = self._best_split(X, codes, weights, counts, gini, n_eff, rng)
        if best is None:
            return node
        feature, threshold, gain, left_mask = best
        features[node] = feature
        thresholds[node] = threshold
        self.feature_importances_[feature] += gain * n_eff
        right_mask = ~left_mask
        lefts[node] = self._grow(X[left_mask], codes[left_mask],
                                 weights[left_mask], n_classes, depth + 1,
                                 rng, nodes)
        rights[node] = self._grow(X[right_mask], codes[right_mask],
                                  weights[right_mask], n_classes, depth + 1,
                                  rng, nodes)
        return node

    def _best_split(self, X: np.ndarray, codes: np.ndarray,
                    weights: np.ndarray, counts: np.ndarray,
                    parent_gini: float, total_w: float,
                    rng: np.random.Generator):
        """``(feature, threshold, gain, left_mask)`` of the node's best
        split, or ``None``.

        Every candidate feature is scored in one pass: each column's
        stable sort order, the cumulative weighted class counts along it
        (``(features, positions, classes)`` arrays of at most
        :data:`_SLICE_ELEMENTS` elements) and the Gini gain of every
        valid split position.  Position ``i`` sends the first ``i + 1``
        sorted rows left; it is valid where the value changes, both
        sides keep ``min_samples_leaf`` rows and some weight.  The winner
        is the first candidate whose best gain beats the best so far.
        """
        n, f_total = X.shape
        k = self._n_candidate_features()
        if k < f_total:
            candidates = rng.choice(f_total, size=k, replace=False)
        else:
            candidates = np.arange(f_total)
        lo, hi = self.min_samples_leaf - 1, n - self.min_samples_leaf
        if lo >= hi:
            return None
        n_classes = len(counts)
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), codes] = weights
        best_gain = 1e-12
        best = None
        step = max(1, _SLICE_ELEMENTS // (n * n_classes))
        for start in range(0, k, step):
            block = X.T[candidates[start:start + step]]
            order = np.argsort(block, axis=1, kind="stable")
            values = block[np.arange(len(block))[:, None], order]
            cum = onehot[order]
            np.add.accumulate(cum, axis=1, out=cum)
            # only positions where the value changes are scored
            fi, pi = np.nonzero(values[:, lo + 1:hi + 1] != values[:, lo:hi])
            left = cum[fi, lo + pi]
            wl = np.add.reduce(left, axis=1)
            wr = total_w - wl
            pl = left / np.maximum(wl, 1e-300)[:, None]
            pr = np.subtract(counts, left, out=left)  # right-side counts
            pr /= np.maximum(wr, 1e-300)[:, None]
            pl *= pl
            pr *= pr
            child = (wl * (1.0 - np.add.reduce(pl, axis=1))
                     + wr * (1.0 - np.add.reduce(pr, axis=1))) / total_w
            gain = np.full((len(block), hi - lo), -np.inf)
            gain[fi, pi] = np.where((wl > 0) & (wr > 0),
                                    parent_gini - child, -np.inf)
            tops = gain.max(axis=1).tolist()
            splits = (lo + gain.argmax(axis=1)).tolist()
            for i, (top, p) in enumerate(zip(tops, splits)):
                if top > best_gain:
                    f = candidates[start + i]
                    threshold = 0.5 * (values[i, p] + values[i, p + 1])
                    left_mask = X[:, f] <= threshold
                    # guard against numerically degenerate thresholds
                    if left_mask.all() or not left_mask.any():
                        continue
                    best_gain = top
                    best = (int(f), float(threshold), best_gain, left_mask)
        return best

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.tree_ is None:
            raise RuntimeError("classifier is not fitted; call fit() first")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates from leaf histograms, ``(N, K)``."""
        self._check_fitted()
        X = check_X(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree was fit on {self.n_features_}")
        return self.tree_.stack.leaf_proba(X)[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on ``(X, y)``."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    @property
    def n_nodes(self) -> int:
        """Number of nodes grown (diagnostics)."""
        return self.tree_.n_nodes if self.tree_ is not None else 0
