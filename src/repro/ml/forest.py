"""Random forest: bagged CART trees with Gini importances and OOB scoring.

This is the paper's workhorse classifier (Section IV-C2) and the source of
the feature-importance feedback that drives feature selection (Section
IV-C1).  Bootstrap resampling is implemented as integer sample weights so
no resampled matrices are materialized.  Inference stacks the trees' flat
arrays once (:class:`~repro.ml.tree.TreeStack`) and descends all of them
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import check_X, check_X_y, encode_labels
from repro.ml.tree import DecisionTreeClassifier, TreeStack
from repro.utils import derive_seed, ensure_rng

__all__ = ["RandomForestClassifier"]


@dataclass
class RandomForestClassifier:
    """Bagged ensemble of randomized CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed to every tree.
    max_features:
        Features sampled per node; default ``"sqrt"`` (the standard forest
        setting).
    bootstrap:
        Draw a bootstrap resample per tree (False trains every tree on the
        full data; only the per-node feature sampling then differs).
    oob_score:
        Compute the out-of-bag accuracy estimate after fitting.
    random_state:
        Master seed; per-tree seeds are derived deterministically.
    """

    n_estimators: int = 60
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: int | str | None = "sqrt"
    bootstrap: bool = True
    oob_score: bool = False
    random_state: int | None = None

    classes_: np.ndarray = field(init=False, repr=False, default=None)
    estimators_: list[DecisionTreeClassifier] = field(
        init=False, repr=False, default_factory=list)
    feature_importances_: np.ndarray = field(init=False, repr=False, default=None)
    oob_score_: float | None = field(init=False, repr=False, default=None)
    #: (the trees' FlatTree objects, their TreeStack), built on first use
    _stacked: tuple | None = field(init=False, repr=False, default=None,
                                   compare=False)

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit the ensemble on ``(X, y)``."""
        X, y = check_X_y(X, y)
        self.classes_, codes = encode_labels(y)
        n = len(X)
        master = self.random_state if self.random_state is not None else 0
        rng = ensure_rng(master)
        self.estimators_ = []
        importances = np.zeros(X.shape[1])
        oob_votes = np.zeros((n, len(self.classes_)))
        for t in range(self.n_estimators):
            seed = derive_seed(master, "tree", t)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed)
            if self.bootstrap:
                picks = rng.integers(0, n, size=n)
                weights = np.bincount(picks, minlength=n).astype(np.float64)
            else:
                weights = np.ones(n)
            tree.fit(X, codes, sample_weight=weights,
                     n_classes=len(self.classes_))
            self.estimators_.append(tree)
            importances += tree.feature_importances_
            if self.oob_score and self.bootstrap:
                oob_mask = weights == 0
                if oob_mask.any():
                    oob_votes[oob_mask] += tree.predict_proba(X[oob_mask])
        self.feature_importances_ = importances / self.n_estimators
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ /= total
        if self.oob_score and self.bootstrap:
            voted = oob_votes.sum(axis=1) > 0
            if voted.any():
                pred = np.argmax(oob_votes[voted], axis=1)
                self.oob_score_ = float(np.mean(pred == codes[voted]))
            else:
                self.oob_score_ = None
        return self

    def _check_fitted(self) -> None:
        if not self.estimators_:
            raise RuntimeError("classifier is not fitted; call fit() first")

    def _tree_stack(self) -> TreeStack:
        """The estimators' :class:`TreeStack`, rebuilt only when a tree
        was refitted or replaced."""
        flats = [tree.tree_ for tree in self.estimators_]
        if self._stacked is None or self._stacked[0] != flats:
            self._stacked = (flats, TreeStack(flats))
        return self._stacked[1]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf-histogram probability over trees, ``(N, K)``.

        Leaf probabilities are summed in tree order (a running sum), so
        the result equals the mean of the trees' own ``predict_proba``
        bit for bit.
        """
        self._check_fitted()
        X = check_X(X)
        n_features = self.estimators_[0].n_features_
        if X.shape[1] != n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, forest was fit on {n_features}")
        leaf = self._tree_stack().leaf_proba(X)
        return np.add.accumulate(leaf, axis=0)[-1] / len(self.estimators_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels (majority soft vote)."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on ``(X, y)``."""
        return float(np.mean(self.predict(X) == np.asarray(y)))
