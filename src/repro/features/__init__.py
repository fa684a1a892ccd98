"""Feature-extraction substrate: the paper's tsfresh-equivalent toolbox.

Table I of the paper lists 25 selected feature *families* (23 time-domain +
FFT + CWT), chosen from a large tsfresh candidate pool via Random Forest
importance feedback.  Since tsfresh is not available offline, this
subpackage implements every Table-I family from scratch:

* :mod:`repro.features.timedomain` — the 23 time-domain families.
* :mod:`repro.features.frequency` — FFT and continuous wavelet (Ricker)
  features.
* :mod:`repro.features.registry` — the named, parameterized feature
  catalogue, including the 9 **bold** families reused by the
  interference-removal classifier (Section IV-F).
* :mod:`repro.features.series` — one cleaned signal plus the memo of
  intermediates its features share.
* :mod:`repro.features.extractor` — vectorized extraction of feature
  matrices from segmented ``ΔRSS^2`` signals.
* :mod:`repro.features.selection` — importance ranking and family-level
  top-k selection (Section IV-C1).
"""

from repro.features.registry import (
    BOLD_FAMILIES,
    CANDIDATE_FAMILIES,
    FAMILY_NAMES,
    FeatureSpec,
    all_feature_names,
    bold_feature_names,
    extended_registry,
    feature_registry,
    family_of,
)
from repro.features.extractor import FeatureExtractor, extract_feature_matrix
from repro.features.series import Series
from repro.features.selection import FeatureSelector, rank_families

__all__ = [
    "BOLD_FAMILIES",
    "CANDIDATE_FAMILIES",
    "FAMILY_NAMES",
    "FeatureSpec",
    "all_feature_names",
    "bold_feature_names",
    "feature_registry",
    "extended_registry",
    "family_of",
    "FeatureExtractor",
    "extract_feature_matrix",
    "Series",
    "FeatureSelector",
    "rank_families",
]
