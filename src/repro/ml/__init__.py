"""From-scratch ML substrate (scikit-learn is unavailable offline).

The paper's recognition stage is a Random Forest chosen over Logistic
Regression, Decision Trees and Bernoulli Naive Bayes (Fig. 9), with RF
feature importances driving feature selection (Section IV-C1).  This
subpackage implements those four classifier families plus the metrics and
cross-validation protocols the evaluation section uses:

* :mod:`repro.ml.tree` — CART decision tree with Gini impurity.
* :mod:`repro.ml.forest` — bagged random forest with Gini importances and
  out-of-bag scoring.
* :mod:`repro.ml.logistic` — multinomial L2 logistic regression.
* :mod:`repro.ml.naive_bayes` — Bernoulli naive Bayes with median
  binarization.
* :mod:`repro.ml.metrics` — confusion matrix, accuracy, per-class recall /
  precision (Section V-C definitions).
* :mod:`repro.ml.model_selection` — stratified splits, k-fold, and the
  leave-one-group-out protocols behind Fig. 10-12.
"""

from repro.ml.base import check_X_y, encode_labels
from repro.ml.cnn import Conv1dClassifier
from repro.ml.dtw import KnnDtwClassifier, dtw_distance
from repro.ml.hmm import GaussianHmm, HmmClassifier
from repro.ml.serialize import deserialize_model, serialize_model
from repro.ml.tree import DecisionTreeClassifier, FlatTree, TreeStack
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.naive_bayes import BernoulliNaiveBayes
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    per_class_precision,
    per_class_recall,
    classification_summary,
)
from repro.ml.model_selection import (
    train_test_split,
    StratifiedKFold,
    leave_one_group_out,
    cross_val_accuracy,
)

__all__ = [
    "check_X_y",
    "encode_labels",
    "DecisionTreeClassifier",
    "FlatTree",
    "TreeStack",
    "RandomForestClassifier",
    "LogisticRegressionClassifier",
    "BernoulliNaiveBayes",
    "accuracy_score",
    "confusion_matrix",
    "per_class_precision",
    "per_class_recall",
    "classification_summary",
    "train_test_split",
    "StratifiedKFold",
    "leave_one_group_out",
    "cross_val_accuracy",
    "KnnDtwClassifier",
    "dtw_distance",
    "GaussianHmm",
    "HmmClassifier",
    "Conv1dClassifier",
    "serialize_model",
    "deserialize_model",
]
