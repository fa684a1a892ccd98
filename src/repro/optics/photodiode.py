"""NIR photodiode model (the paper's 304PT: 700-1000 nm, 80 deg FoV, 3 mm)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.optics.geometry import batch_dot, cosine_power_exponent, normalize

__all__ = ["Photodiode"]


@dataclass(frozen=True)
class Photodiode:
    """A photodiode with band-limited spectral response and a ``cos^m`` FoV.

    Parameters
    ----------
    band_nm:
        ``(low, high)`` spectral sensitivity band; flux outside it is ignored.
        The 304PT responds between 700 and 1000 nm.
    fov_deg:
        Full angular field of view at half sensitivity (80 deg for the 304PT,
        i.e. response halves 40 deg off axis).
    responsivity_ua_per_mw:
        Photocurrent per received optical power.  Silicon photodiodes achieve
        roughly 0.5-0.6 A/W around 900 nm; expressed here as uA per mW.
    active_area_mm2:
        Light-collecting area of the die.
    diameter_mm:
        Package diameter, used for layout.
    """

    band_nm: tuple[float, float] = (700.0, 1000.0)
    fov_deg: float = 80.0
    responsivity_ua_per_mw: float = 550.0
    active_area_mm2: float = 0.7
    diameter_mm: float = 3.0
    _exponent: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        low, high = self.band_nm
        if not low < high:
            raise ValueError(f"band_nm must be (low, high) with low < high, got {self.band_nm}")
        if not 0.0 < self.fov_deg < 180.0:
            raise ValueError(f"fov_deg must be in (0, 180), got {self.fov_deg}")
        if self.responsivity_ua_per_mw <= 0.0:
            raise ValueError("responsivity_ua_per_mw must be positive")
        if self.active_area_mm2 <= 0.0:
            raise ValueError("active_area_mm2 must be positive")
        if self.diameter_mm <= 0.0:
            raise ValueError("diameter_mm must be positive")
        object.__setattr__(
            self, "_exponent", cosine_power_exponent(self.fov_deg / 2.0))

    @property
    def lobe_exponent(self) -> float:
        """Exponent ``m`` of the ``cos(theta)^m`` angular response."""
        return self._exponent

    def in_band(self, wavelength_nm: float) -> bool:
        """True when light of *wavelength_nm* falls inside the spectral band."""
        low, high = self.band_nm
        return low <= wavelength_nm <= high

    def angular_response(self, axis: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        """Relative sensitivity (0..1) for light arriving along *incoming*.

        *incoming* points **from the source towards the photodiode**; a ray
        arriving straight down the boresight has ``incoming == -axis``.
        """
        axis = normalize(np.asarray(axis, dtype=np.float64))
        incoming = normalize(np.atleast_2d(np.asarray(incoming, dtype=np.float64)))
        return self.response_at(batch_dot(-incoming, axis))

    def response_at(self, cos_theta: np.ndarray) -> np.ndarray:
        """Relative sensitivity (0..1) at off-axis cosine *cos_theta*.

        *cos_theta* is the cosine between the boresight and the reversed
        arrival direction (``-incoming``); it is clipped to ``[0, 1]``.
        """
        cos_theta = np.clip(cos_theta, 0.0, 1.0)
        return cos_theta ** self._exponent

    def photocurrent_ua(self, flux_mw: np.ndarray | float,
                        wavelength_nm: float | None = None) -> np.ndarray:
        """Convert received optical power to photocurrent (uA).

        Out-of-band flux contributes nothing; broadband ambient light should
        be pre-filtered to its in-band fraction before calling this.
        """
        flux = np.asarray(flux_mw, dtype=np.float64)
        if wavelength_nm is not None and not self.in_band(wavelength_nm):
            return np.zeros_like(flux)
        return self.responsivity_ua_per_mw * flux

    def solid_angle_sr(self, distance_mm: float) -> float:
        """Solid angle the active area subtends at *distance_mm* (small-angle)."""
        if distance_mm <= 0.0:
            raise ValueError("distance_mm must be positive")
        return self.active_area_mm2 / (distance_mm * distance_mm)

    @property
    def half_angle_rad(self) -> float:
        """Half field of view in radians."""
        return math.radians(self.fov_deg / 2.0)
