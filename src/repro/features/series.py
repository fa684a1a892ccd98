"""One cleaned signal plus the intermediates its features share.

Every feature function accepts a raw array or a :class:`Series`.  Given
a raw array it builds a private one; :class:`~repro.features.extractor.
FeatureExtractor` builds one per signal and hands it to every feature,
so the signal is cleaned once and each shared intermediate — moments,
autocorrelations, the Durbin–Levinson table, the AR fit, the tolerance
matrix of both entropies, the chunk split, the linear fit, the moving
average, the spectrum, the Ricker responses — is computed by the first
feature that needs it and reused by the rest.  A memoized value is the
exact result the feature would have computed on its own, so every
feature value is bit-identical either way.  The memo lives and dies with
the series: nothing is cached across signals.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Series", "as_series"]


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

    # moments several families read (callers guard the empty signal)
    def mean(self):
        return self.memo("mean", self.x.mean)

    def var(self):
        return self.memo("var", np.var, self.x)

    def std(self):
        return self.memo("std", np.std, self.x)

    def mean_square(self):
        return self.memo("mean_square", _mean_square, self.x)


def _mean_square(x: np.ndarray):
    return np.mean(x * x)


def as_series(x) -> Series:
    """*x* itself when it already is a :class:`Series`, else a new one."""
    return x if isinstance(x, Series) else Series(x)
