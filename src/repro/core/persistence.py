"""Persistence of trained recognition stacks.

The paper emphasizes that airFinger ships pre-trained: "we can pre-train
the classifier and then people can directly work with airFinger without
user-specific calibration" (Section V-F2).  For that to be an actual
product property the trained stack must be storable; this module bundles a
fitted :class:`DetectAimedRecognizer` and :class:`InterferenceFilter`
(plus the configuration) into a single JSON file and back.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.core.config import AirFingerConfig
from repro.core.detector import DetectAimedRecognizer
from repro.core.interference import InterferenceFilter
from repro.core.pipeline import AirFinger
from repro.features.extractor import FeatureExtractor
from repro.ml.serialize import (
    deserialize_model,
    n_features_in,
    serialize_model,
)

__all__ = ["save_stack", "load_stack", "FORMAT_VERSION"]

FORMAT_VERSION = 1


def _extractor_payload(extractor: FeatureExtractor) -> dict:
    return {"names": list(extractor.names)}


def _extractor_restore(payload: dict) -> FeatureExtractor:
    return FeatureExtractor.for_names(payload["names"])


def _check_width(block: str, model, width: int) -> None:
    """Refuse a model that cannot read its extractor's columns — at load,
    not at the first segment in serving."""
    expected = n_features_in(model)
    if expected != width:
        raise ValueError(
            f"{block}: the model reads {expected} features but the "
            f"extractor provides {width}")


def save_stack(path: str | Path,
               detector: DetectAimedRecognizer | None = None,
               interference_filter: InterferenceFilter | None = None,
               config: AirFingerConfig | None = None) -> None:
    """Write a trained stack to *path* (JSON).

    At least one of *detector* / *interference_filter* must be fitted.
    """
    if detector is None and interference_filter is None:
        raise ValueError("nothing to save: no detector and no filter")
    payload: dict = {"format_version": FORMAT_VERSION}
    if config is not None:
        payload["config"] = asdict(config)
    if detector is not None:
        if detector.model_ is None:
            raise ValueError("detector is not fitted")
        payload["detector"] = {
            "extractor": _extractor_payload(detector.extractor),
            "selected_families": (
                list(detector.selector.selected_families_)
                if detector.selector is not None
                and detector.selector.column_mask_ is not None else None),
            "model": serialize_model(detector.model_),
        }
    if interference_filter is not None:
        if interference_filter.model_ is None:
            raise ValueError("interference filter is not fitted")
        payload["interference_filter"] = {
            "extractor": _extractor_payload(interference_filter.extractor),
            "model": serialize_model(interference_filter.model_),
        }
    Path(path).write_text(json.dumps(payload))


def load_stack(path: str | Path) -> dict:
    """Load a stack saved by :func:`save_stack`.

    Returns
    -------
    dict
        Keys ``detector`` (:class:`DetectAimedRecognizer` or ``None``),
        ``interference_filter`` (:class:`InterferenceFilter` or ``None``),
        ``config`` (:class:`AirFingerConfig` or ``None``), and ``engine``
        (a ready :class:`AirFinger` built from all three).
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported stack format {version!r}; this build reads "
            f"{FORMAT_VERSION}")

    config = None
    if "config" in payload:
        config = AirFingerConfig(**payload["config"])

    detector = None
    if "detector" in payload:
        block = payload["detector"]
        detector = DetectAimedRecognizer(
            extractor=_extractor_restore(block["extractor"]))
        if block.get("selected_families"):
            from repro.features.selection import FeatureSelector
            selector = FeatureSelector(
                top_k_families=len(block["selected_families"]))
            selector.selected_families_ = tuple(block["selected_families"])
            keep = set(block["selected_families"])
            import numpy as np
            selector.column_mask_ = np.array(
                [fam in keep for fam in detector.extractor.families])
            detector.selector = selector
        detector.model_ = deserialize_model(block["model"])
        detector.classes_ = detector.model_.classes_
        width = (int(detector.selector.column_mask_.sum())
                 if detector.selector is not None
                 else detector.extractor.n_features)
        _check_width("detector", detector.model_, width)

    inter = None
    if "interference_filter" in payload:
        block = payload["interference_filter"]
        inter = InterferenceFilter(
            extractor=_extractor_restore(block["extractor"]))
        inter.model_ = deserialize_model(block["model"])
        _check_width("interference_filter", inter.model_,
                     inter.extractor.n_features)

    engine = AirFinger(
        config=config or AirFingerConfig(),
        detector=detector,
        interference_filter=inter)
    return {"detector": detector, "interference_filter": inter,
            "config": config, "engine": engine}
