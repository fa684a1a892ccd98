"""Frequency-domain feature families of Table I: FFT and CWT (Ricker).

The FFT features describe the magnitude spectrum of the ``ΔRSS^2`` signal
(rub gestures concentrate energy at the stroke frequency; clicks are
broadband; circles are low-frequency).  The continuous wavelet transform
uses the Ricker ("Mexican hat") wavelet, implemented directly since recent
scipy versions removed ``scipy.signal.ricker``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.features.series import Series, as_series, mean_of

__all__ = [
    "fft_coefficient_abs",
    "fft_spectral_centroid",
    "fft_spectral_spread",
    "fft_spectral_entropy",
    "fft_peak_frequency_bin",
    "ricker_wavelet",
    "cwt_ricker",
    "cwt_energy",
    "cwt_peak_width",
]


def _spectrum(s: Series) -> tuple[np.ndarray, float]:
    """``(magnitude, its sum)``: the one-sided magnitude spectrum of the
    mean-removed signal, computed once per series."""
    return s.memo("spectrum", _compute_spectrum, s)


def _compute_spectrum(s: Series) -> tuple[np.ndarray, float]:
    mag = np.zeros(1) if s.x.size < 2 else np.abs(np.fft.rfft(s.centred()))
    return mag, np.add.reduce(mag)


def _centroid(mag: np.ndarray, total) -> tuple[np.ndarray, float]:
    """``(relative frequency of each bin, spectral centroid)``."""
    n_fft = 2 * (mag.size - 1) if mag.size > 1 else 1
    freqs = np.arange(mag.size) / max(n_fft, 1)
    return freqs, np.add.reduce(freqs * mag) / total


# ---------------------------------------------------------------------------
# FFT family
# ---------------------------------------------------------------------------

def fft_coefficient_abs(x: np.ndarray | Series, k: int = 1) -> float:
    """Magnitude of the k-th FFT coefficient, energy-normalized.

    Normalizing by the total spectral magnitude makes the coefficient a
    *shape* descriptor, invariant to the raw RSS amplitude — exactly the
    robustness property the paper's selection favours.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    mag, total = _spectrum(as_series(x))
    if total < 1e-300 or k >= mag.size:
        return 0.0
    return float(mag[k] / total)


def fft_spectral_centroid(x: np.ndarray | Series) -> float:
    """Centroid of the magnitude spectrum in relative frequency (0..0.5)."""
    s = as_series(x)
    mag, total = _spectrum(s)
    if total < 1e-300:
        return 0.0
    return float(s.memo("centroid", _centroid, mag, total)[1])


def fft_spectral_spread(x: np.ndarray | Series) -> float:
    """Standard deviation of the spectrum around its centroid."""
    s = as_series(x)
    mag, total = _spectrum(s)
    if total < 1e-300:
        return 0.0
    freqs, centroid = s.memo("centroid", _centroid, mag, total)
    return math.sqrt(np.add.reduce(((freqs - centroid) ** 2) * mag) / total)


def fft_spectral_entropy(x: np.ndarray | Series) -> float:
    """Shannon entropy of the normalized power spectrum (nats)."""
    mag = _spectrum(as_series(x))[0]
    power = mag * mag
    total = np.add.reduce(power)
    if total < 1e-300:
        return 0.0
    p = power / total
    p = p[p > 1e-300]
    return float(-np.add.reduce(p * np.log(p)))


def fft_peak_frequency_bin(x: np.ndarray | Series) -> float:
    """Relative frequency (0..0.5) of the strongest non-DC component."""
    mag = _spectrum(as_series(x))[0]
    if mag.size < 2:
        return 0.0
    k = int(np.argmax(mag[1:])) + 1
    n_fft = 2 * (mag.size - 1)
    return float(k / n_fft)


# ---------------------------------------------------------------------------
# CWT family (Ricker / Mexican-hat)
# ---------------------------------------------------------------------------

def ricker_wavelet(points: int, width: float) -> np.ndarray:
    """The Ricker wavelet of the given *width* sampled over *points*."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    a = float(width)
    norm = 2.0 / (np.sqrt(3.0 * a) * np.pi ** 0.25)
    t = np.arange(points) - (points - 1) / 2.0
    gauss = np.exp(-(t * t) / (2.0 * a * a))
    return norm * (1.0 - (t * t) / (a * a)) * gauss


@functools.lru_cache(maxsize=256)
def _ricker_kernel(points: int, width: float) -> np.ndarray:
    """:func:`ricker_wavelet`, built once per shape and read-only, as
    every signal of a length shares it."""
    kernel = ricker_wavelet(points, width)
    kernel.flags.writeable = False
    return kernel


def _ricker_response(x: np.ndarray, width: float) -> np.ndarray:
    points = min(10 * math.ceil(width), max(x.size, 1))
    # the wavelet is symmetric and no longer than x, so correlating with it
    # is np.convolve(x, wavelet, "same") bit for bit, minus the wrapper
    return np.correlate(x, _ricker_kernel(points, width), "same")


def cwt_ricker(x: np.ndarray | Series,
               widths: tuple[float, ...] = (2.0, 5.0, 10.0, 20.0)
               ) -> np.ndarray:
    """Continuous wavelet transform, one row per width (same length as x).

    Each width's response is computed once per series and shared by
    every CWT feature that reads it.
    """
    s = as_series(x)
    if s.x.size == 0:
        return np.zeros((len(widths), 0))
    return np.stack([s.memo(("cwt", w), _ricker_response, s.x, w)
                     for w in widths])


def cwt_energy(x: np.ndarray | Series, width: float = 5.0) -> float:
    """Mean squared CWT response at *width*, normalized by signal energy.

    The normalization removes raw amplitude, leaving a scale-occupancy
    descriptor: how much of the signal's structure lives at this width.
    """
    s = as_series(x)
    if s.x.size < 2:
        return 0.0
    energy = float(s.mean_square())
    if energy < 1e-300:
        return 0.0
    row = s.memo(("cwt", width), _ricker_response, s.x, width)
    return float(mean_of(row * row) / energy)


def cwt_peak_width(x: np.ndarray | Series,
                   widths: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0)
                   ) -> float:
    """The width whose CWT response is strongest (dominant event scale)."""
    s = as_series(x)
    if s.x.size < 2:
        return 0.0
    responses = cwt_ricker(s, widths)
    scores = np.max(np.abs(responses), axis=1)
    if float(scores.max()) < 1e-300:
        return 0.0
    return float(widths[int(np.argmax(scores))])
