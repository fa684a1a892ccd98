"""One cleaned signal plus the intermediates its features share.

Every feature function accepts a raw array or a :class:`Series`.  Given
a raw array it builds a private one; :class:`~repro.features.extractor.
FeatureExtractor` builds one per signal and hands it to every feature,
so the signal is cleaned once and each shared intermediate — the sorted
samples, moments, the mean-removed and z-scored signal,
autocorrelations, the Durbin–Levinson table, the AR fit, the tolerance
matrix of both entropies, the chunk energies, the linear fit, the moving
average, the spectrum, the Ricker responses — is computed by the first
feature that needs it and reused by the rest.  A memoized value is the
exact result the feature would have computed on its own, so every
feature value is bit-identical either way.  The memo lives and dies with
the series: nothing is cached across signals.

The moments run the very reductions ``np.mean``, ``np.var`` and
``np.std`` run — ``np.add.reduce(x) / n``; the mean-removed ``d``;
``np.add.reduce(d * d) / n``; its square root — without those
functions' argument handling, which costs several times the arithmetic
on a segment-sized signal.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Series", "as_series", "mean_of"]


def mean_of(v: np.ndarray):
    """``np.mean(v)`` of a non-empty float64 vector: the same pairwise
    sum over the same count, without the wrapper."""
    return np.add.reduce(v) / v.size


class Series:
    """A signal as ``float64``, flattened, with NaN and ±inf set to 0."""

    __slots__ = ("x", "_memo")

    def __init__(self, x) -> None:
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size:
            x = np.nan_to_num(x, nan=0.0, posinf=0.0, neginf=0.0)
        self.x = x
        self._memo: dict = {}

    def memo(self, key, compute, *args):
        """``compute(*args)``, computed once per series and *key*."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute(*args)
        return memo[key]

    def sorted(self) -> np.ndarray:
        """The samples in ascending order."""
        return self.memo("sorted", np.sort, self.x)

    # moments several families read (callers guard the empty signal)
    def mean(self):
        return self.memo("mean", mean_of, self.x)

    def centred(self) -> np.ndarray:
        """``x - mean``, the deviations ``np.var`` squares."""
        return self.memo("centred", np.subtract, self.x, self.mean())

    def var(self):
        return self.memo("var", _mean_square, self.centred())

    def std(self):
        return self.memo("std", math.sqrt, self.var())

    def zscore(self) -> np.ndarray:
        """``(x - mean) / std`` (callers guard a zero std)."""
        return self.memo("zscore", np.true_divide, self.centred(),
                         self.std())

    def mean_square(self):
        return self.memo("mean_square", _mean_square, self.x)


def _mean_square(v: np.ndarray):
    return mean_of(v * v)


def as_series(x) -> Series:
    """*x* itself when it already is a :class:`Series`, else a new one."""
    return x if isinstance(x, Series) else Series(x)
