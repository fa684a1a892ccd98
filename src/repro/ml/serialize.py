"""Serialization of the from-scratch classifiers (JSON-compatible dicts).

Deployed recognizers must ship without retraining (the paper stresses that
airFinger works pre-trained, with no per-user calibration), so every model
here round-trips through a plain-``dict`` representation:

    payload = serialize_model(model)      # JSON-compatible
    clone   = deserialize_model(payload)  # predicts identically

Trees are written as their pre-order parallel arrays
(:class:`~repro.ml.tree.FlatTree`); probabilities and predictions are
bit-identical after a round trip.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.naive_bayes import BernoulliNaiveBayes
from repro.ml.tree import DecisionTreeClassifier, FlatTree

__all__ = ["serialize_model", "deserialize_model", "n_features_in"]


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

def _classes_payload(classes: np.ndarray) -> dict:
    return {"values": [c.item() if hasattr(c, "item") else c
                       for c in classes],
            "dtype": str(np.asarray(classes).dtype.kind)}


def _classes_restore(payload: dict) -> np.ndarray:
    kind = payload["dtype"]
    if kind in ("U", "S", "O"):
        return np.asarray(payload["values"], dtype=object).astype(str)
    if kind in ("i", "u"):
        return np.asarray(payload["values"], dtype=np.int64)
    return np.asarray(payload["values"])


def _serialize_tree(model: DecisionTreeClassifier) -> dict:
    tree = model.tree_
    if tree is None:
        raise ValueError("cannot serialize an unfitted tree")
    return {
        "kind": "decision_tree",
        "params": {
            "max_depth": model.max_depth,
            "min_samples_split": model.min_samples_split,
            "min_samples_leaf": model.min_samples_leaf,
            "max_features": model.max_features,
            "random_state": model.random_state,
        },
        "classes": _classes_payload(model.classes_),
        "n_features": int(model.n_features_),
        "importances": [float(v) for v in model.feature_importances_],
        "tree": {"features": tree.feature.tolist(),
                 "thresholds": tree.threshold.tolist(),
                 "lefts": tree.left.tolist(),
                 "rights": tree.right.tolist(),
                 "counts": tree.counts.tolist()},
    }


def _deserialize_tree(payload: dict) -> DecisionTreeClassifier:
    model = DecisionTreeClassifier(**payload["params"])
    model.classes_ = _classes_restore(payload["classes"])
    model.n_features_ = payload["n_features"]
    model.feature_importances_ = np.asarray(payload["importances"])
    data = payload["tree"]
    model.tree_ = FlatTree.from_lists(data["features"], data["thresholds"],
                                      data["lefts"], data["rights"],
                                      data["counts"])
    return model


# ---------------------------------------------------------------------------
# other models
# ---------------------------------------------------------------------------

def _serialize_forest(model: RandomForestClassifier) -> dict:
    if not model.estimators_:
        raise ValueError("cannot serialize an unfitted forest")
    return {
        "kind": "random_forest",
        "params": {
            "n_estimators": model.n_estimators,
            "max_depth": model.max_depth,
            "min_samples_split": model.min_samples_split,
            "min_samples_leaf": model.min_samples_leaf,
            "max_features": model.max_features,
            "bootstrap": model.bootstrap,
            "oob_score": model.oob_score,
            "random_state": model.random_state,
        },
        "classes": _classes_payload(model.classes_),
        "importances": [float(v) for v in model.feature_importances_],
        "oob_score_": model.oob_score_,
        "trees": [_serialize_tree(t) for t in model.estimators_],
    }


def _deserialize_forest(payload: dict) -> RandomForestClassifier:
    model = RandomForestClassifier(**payload["params"])
    model.classes_ = _classes_restore(payload["classes"])
    model.feature_importances_ = np.asarray(payload["importances"])
    model.oob_score_ = payload["oob_score_"]
    model.estimators_ = [_deserialize_tree(t) for t in payload["trees"]]
    return model


def _serialize_logistic(model: LogisticRegressionClassifier) -> dict:
    if model.coef_ is None:
        raise ValueError("cannot serialize an unfitted model")
    return {
        "kind": "logistic_regression",
        "params": {"l2": model.l2, "max_iter": model.max_iter,
                   "tol": model.tol, "learning_rate": model.learning_rate},
        "classes": _classes_payload(model.classes_),
        "coef": model.coef_.tolist(),
        "intercept": model.intercept_.tolist(),
        "mean": model._mean.tolist(),
        "scale": model._scale.tolist(),
    }


def _deserialize_logistic(payload: dict) -> LogisticRegressionClassifier:
    model = LogisticRegressionClassifier(**payload["params"])
    model.classes_ = _classes_restore(payload["classes"])
    model.coef_ = np.asarray(payload["coef"])
    model.intercept_ = np.asarray(payload["intercept"])
    model._mean = np.asarray(payload["mean"])
    model._scale = np.asarray(payload["scale"])
    return model


def _serialize_nb(model: BernoulliNaiveBayes) -> dict:
    if model.feature_log_prob_ is None:
        raise ValueError("cannot serialize an unfitted model")
    return {
        "kind": "bernoulli_nb",
        "params": {"alpha": model.alpha},
        "classes": _classes_payload(model.classes_),
        "thresholds": model.thresholds_.tolist(),
        "log_prior": model.log_prior_.tolist(),
        "log_prob": model.feature_log_prob_.tolist(),
        "log_prob_neg": model.feature_log_prob_neg_.tolist(),
    }


def _deserialize_nb(payload: dict) -> BernoulliNaiveBayes:
    model = BernoulliNaiveBayes(**payload["params"])
    model.classes_ = _classes_restore(payload["classes"])
    model.thresholds_ = np.asarray(payload["thresholds"])
    model.log_prior_ = np.asarray(payload["log_prior"])
    model.feature_log_prob_ = np.asarray(payload["log_prob"])
    model.feature_log_prob_neg_ = np.asarray(payload["log_prob_neg"])
    return model


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_SERIALIZERS = {
    DecisionTreeClassifier: _serialize_tree,
    RandomForestClassifier: _serialize_forest,
    LogisticRegressionClassifier: _serialize_logistic,
    BernoulliNaiveBayes: _serialize_nb,
}

_DESERIALIZERS = {
    "decision_tree": _deserialize_tree,
    "random_forest": _deserialize_forest,
    "logistic_regression": _deserialize_logistic,
    "bernoulli_nb": _deserialize_nb,
}


def n_features_in(model) -> int:
    """Number of feature columns a fitted repro.ml classifier reads."""
    if isinstance(model, RandomForestClassifier):
        model = model.estimators_[0]
    if isinstance(model, DecisionTreeClassifier):
        return int(model.n_features_)
    if isinstance(model, LogisticRegressionClassifier):
        return int(model.coef_.shape[0])
    if isinstance(model, BernoulliNaiveBayes):
        return int(model.thresholds_.size)
    raise TypeError(f"unknown model type {type(model).__name__}")


def serialize_model(model) -> dict:
    """A JSON-compatible payload for any fitted repro.ml classifier."""
    for cls, func in _SERIALIZERS.items():
        if isinstance(model, cls):
            return func(model)
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def deserialize_model(payload: dict):
    """Rebuild a classifier from :func:`serialize_model` output."""
    kind = payload.get("kind")
    if kind not in _DESERIALIZERS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _DESERIALIZERS[kind](payload)
