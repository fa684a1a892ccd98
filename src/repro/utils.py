"""Shared utilities: deterministic RNG handling, validation, small numerics.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  :func:`ensure_rng` normalizes both to a
``Generator`` so call sites never touch global random state, and
:func:`derive_rng` deterministically forks child generators from string keys
so that, e.g., user 3 / session 2 / repetition 7 always observes the same
random stream regardless of generation order.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ensure_rng",
    "derive_rng",
    "derive_seed",
    "as_float_array",
    "chunked",
    "fast_quantile",
    "sorted_quantile",
    "validate_positive",
    "validate_fraction",
    "validate_window",
    "moving_average",
    "box_kernel",
    "clamp",
]


def ensure_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, or an existing generator
        (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *keys: object) -> int:
    """Derive a child seed from *base_seed* and a sequence of hashable keys.

    The derivation is stable across processes and Python versions (it uses
    SHA-256 rather than ``hash()``), which keeps dataset generation
    bit-for-bit reproducible.
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode())
    for key in keys:
        digest.update(b"\x1f")
        digest.update(repr(key).encode())
    return int.from_bytes(digest.digest()[:8], "little")


def derive_rng(base_seed: int, *keys: object) -> np.random.Generator:
    """Deterministically fork a generator keyed by *keys* (see :func:`derive_seed`)."""
    return np.random.default_rng(derive_seed(base_seed, *keys))


def chunked(items: Sequence, size: int) -> list:
    """Split *items* into consecutive chunks of at most *size* elements.

    The last chunk may be shorter.  Chunking is purely positional, so any
    per-item derivation keyed by the item itself (see :func:`derive_rng`)
    is unaffected by the chunk size.
    """
    size = int(size)
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    items = list(items)
    return [items[i:i + size] for i in range(0, len(items), size)]


def as_float_array(values: Iterable[float], name: str = "values") -> np.ndarray:
    """Convert *values* to a 1-D ``float64`` array, rejecting NaN/inf."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got NaN or inf")
    return arr


def fast_quantile(values: np.ndarray, q: float) -> float:
    """Bit-identical ``np.quantile(values, q)`` without its call overhead.

    ``np.quantile`` spends ~50 µs per call on argument normalization —
    painful for the streaming hot paths (threshold refresh, sweep
    statistics) that evaluate small quantiles thousands of times.  This
    replays numpy's default ``linear`` method directly: partition at the
    two bracketing order statistics and interpolate with the same
    lesser/greater-gamma formulas, so the result carries the exact same
    bits.  Inputs containing NaN/inf fall back to ``np.quantile``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    a = np.asarray(values, dtype=np.float64).ravel()
    n = a.size
    if n == 0 or not np.all(np.isfinite(a)):
        return float(np.quantile(a, q))
    virtual = q * (n - 1)
    lo = int(virtual)
    hi = min(lo + 1, n - 1)
    gamma = virtual - lo
    part = np.partition(a, (lo, hi))
    below, above = part[lo], part[hi]
    diff = above - below
    # numpy's _lerp switches formula at gamma >= 0.5 to stay monotone
    if gamma >= 0.5:
        return float(above - diff * (1.0 - gamma))
    return float(below + diff * gamma)


def sorted_quantile(ordered, q: float) -> float | None:
    """``np.quantile(a, q)`` read off *ordered*, an ascending copy of ``a``.

    The two bracketing order statistics come straight from the sorted
    array or list and numpy's monotone lerp (:func:`fast_quantile`'s)
    joins them, so the answer carries ``np.quantile``'s bits without any
    partition.  Returns None when *ordered* holds a non-finite value
    (NaN sorts last, ±inf to the ends) or a bracketing order statistic is
    zero: ``np.quantile`` then propagates NaN, or its answer depends on
    which signed zero its partition picked — callers take
    :func:`fast_quantile` instead.
    """
    n = len(ordered)
    virtual = q * (n - 1)
    lo = int(virtual)
    below = float(ordered[lo])
    above = float(ordered[min(lo + 1, n - 1)])
    if (not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1]))
            or below == 0.0 or above == 0.0):
        return None
    gamma = virtual - lo
    diff = above - below
    if gamma >= 0.5:
        return above - diff * (1.0 - gamma)
    return below + diff * gamma


def validate_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless *value* is a finite positive number."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def validate_fraction(value: float, name: str) -> float:
    """Raise ``ValueError`` unless 0 <= value <= 1."""
    value = float(value)
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


def validate_window(window: int, n: int | None = None) -> int:
    """Validate a sliding-window length (positive int, optionally <= n)."""
    window = int(window)
    if window <= 0:
        raise ValueError(f"window must be a positive integer, got {window}")
    if n is not None and window > n:
        raise ValueError(f"window {window} exceeds signal length {n}")
    return window


def moving_average(signal: Sequence[float], window: int) -> np.ndarray:
    """Centred moving average with edge truncation (same length as input)."""
    arr = as_float_array(signal, "signal")
    window = validate_window(window)
    if arr.size == 0 or window == 1:
        return arr.copy()
    kernel = np.ones(min(window, arr.size))
    sums = np.convolve(arr, kernel, mode="same")
    counts = np.convolve(np.ones_like(arr), kernel, mode="same")
    return sums / counts


@functools.lru_cache(maxsize=32)
def box_kernel(k: int) -> np.ndarray:
    """The ``k``-tap moving-average kernel ``np.ones(k) / k``, built once
    and read-only, as every caller shares it.

    It is symmetric, so for a signal at least ``k`` long
    ``np.correlate(x, kernel, "same")`` computes ``np.convolve(x, kernel,
    "same")`` bit for bit, without the latter's argument handling.
    """
    kernel = np.ones(k) / k
    kernel.flags.writeable = False
    return kernel


def clamp(value: float, low: float, high: float) -> float:
    """Clamp *value* into ``[low, high]``."""
    if low > high:
        raise ValueError(f"invalid clamp bounds: low {low} > high {high}")
    return float(min(max(value, low), high))
