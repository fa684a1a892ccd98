"""Feature-matrix extraction from segmented gesture signals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.features.registry import FeatureSpec, feature_registry
from repro.features.series import Series

__all__ = ["FeatureExtractor", "extract_feature_matrix"]


@dataclass(frozen=True)
class FeatureExtractor:
    """Computes a fixed-order feature vector from a 1-D signal.

    The input signal is the ``ΔRSS^2`` output of the SBC stage for one
    segmented gesture (channel-combined), matching "extract a large number
    of features from the results of Data Processing" (Section IV-C1).

    Parameters
    ----------
    specs:
        Concrete features to compute, in output-column order.  Defaults to
        the full registry.
    """

    specs: tuple[FeatureSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.specs:
            object.__setattr__(self, "specs", feature_registry())
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names in extractor")

    @classmethod
    def full(cls) -> "FeatureExtractor":
        """Extractor over the entire registry."""
        return cls(specs=feature_registry())

    @classmethod
    def bold(cls) -> "FeatureExtractor":
        """Extractor over the bold subset (interference filter features)."""
        return cls(specs=tuple(s for s in feature_registry() if s.bold))

    @classmethod
    def for_families(cls, families: Iterable[str]) -> "FeatureExtractor":
        """Extractor restricted to the given Table-I families."""
        wanted = set(families)
        specs = tuple(s for s in feature_registry() if s.family in wanted)
        if not specs:
            raise ValueError(f"no registry features in families {sorted(wanted)}")
        return cls(specs=specs)

    @classmethod
    def for_names(cls, names: Iterable[str]) -> "FeatureExtractor":
        """Extractor restricted to the given concrete feature names."""
        wanted = list(names)
        if not wanted:
            raise ValueError("no feature names given")
        by_name = {s.name: s for s in feature_registry()}
        missing = [n for n in wanted if n not in by_name]
        if missing:
            raise KeyError(f"unknown feature names: {missing}")
        return cls(specs=tuple(by_name[n] for n in wanted))

    @property
    def names(self) -> tuple[str, ...]:
        """Output column names."""
        return tuple(s.name for s in self.specs)

    @property
    def families(self) -> tuple[str, ...]:
        """Family of each output column."""
        return tuple(s.family for s in self.specs)

    @property
    def n_features(self) -> int:
        """Number of output columns."""
        return len(self.specs)

    def extract(self, signal: np.ndarray) -> np.ndarray:
        """Feature vector for one signal (finite float64, shape ``(F,)``).

        The signal is cleaned once into a :class:`~repro.features.series.
        Series` that every feature reads, so intermediates several
        features share (the spectrum, autocorrelations, the entropies'
        tolerance matrix, ...) are computed once; each value is
        bit-identical to ``spec.compute(signal)`` on its own, overflow as
        quiet.
        """
        series = Series(signal)
        with np.errstate(all="ignore"):
            return np.array([spec.finite_value(series)
                             for spec in self.specs])

    def extract_many(self, signals: Sequence[np.ndarray]) -> np.ndarray:
        """Feature matrix ``(N, F)`` for a batch of signals.

        Row ``i`` is exactly ``extract(signals[i])`` — the batch surface
        exists so callers (corpus extraction, the detector stack, the
        eval protocols) share intermediates per signal without writing
        their own loop.
        """
        if len(signals) == 0:
            return np.zeros((0, self.n_features))
        return np.stack([self.extract(s) for s in signals])


def extract_feature_matrix(signals: Sequence[np.ndarray],
                           extractor: FeatureExtractor | None = None,
                           ) -> tuple[np.ndarray, tuple[str, ...]]:
    """Convenience: ``(X, feature_names)`` for a batch of signals."""
    extractor = extractor or FeatureExtractor.full()
    return extractor.extract_many(signals), extractor.names
