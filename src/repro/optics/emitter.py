"""NIR LED emitter model (the paper's 304IRC-94: 940 nm, 20 deg FoV, 3 mm)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.optics.geometry import batch_dot, cosine_power_exponent, normalize

__all__ = ["NirLed"]


@dataclass(frozen=True)
class NirLed:
    """A near-infrared LED with a ``cos^m`` radiant-intensity lobe.

    Parameters
    ----------
    wavelength_nm:
        Peak emission wavelength.  The 304IRC-94 emits at 940 nm.
    fov_deg:
        Full angular field of view at half intensity (datasheet "20 deg"
        means the intensity halves 10 deg off axis).
    radiant_intensity_mw_sr:
        On-axis radiant intensity in mW/sr.  A narrow-beam 3 mm NIR LED
        driven near its rated current emits on the order of tens of mW/sr.
    diameter_mm:
        Package diameter (3 mm in the paper); used for layout only.
    """

    wavelength_nm: float = 940.0
    fov_deg: float = 20.0
    radiant_intensity_mw_sr: float = 150.0
    diameter_mm: float = 3.0
    _exponent: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        if not 740.0 <= self.wavelength_nm <= 1400.0:
            raise ValueError(
                f"wavelength {self.wavelength_nm} nm is outside the NIR band 740-1400 nm")
        if not 0.0 < self.fov_deg < 180.0:
            raise ValueError(f"fov_deg must be in (0, 180), got {self.fov_deg}")
        if self.radiant_intensity_mw_sr <= 0.0:
            raise ValueError("radiant_intensity_mw_sr must be positive")
        if self.diameter_mm <= 0.0:
            raise ValueError("diameter_mm must be positive")
        object.__setattr__(
            self, "_exponent", cosine_power_exponent(self.fov_deg / 2.0))

    @property
    def lobe_exponent(self) -> float:
        """Exponent ``m`` of the ``cos(theta)^m`` intensity lobe."""
        return self._exponent

    def intensity_towards(self, axis: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Radiant intensity (mW/sr) emitted towards unit *directions*.

        Parameters
        ----------
        axis:
            LED boresight, a single unit 3-vector.
        directions:
            ``(T, 3)`` (or ``(3,)``) unit vectors from the LED towards targets.

        Returns
        -------
        numpy.ndarray
            Intensity per direction; zero behind the emitting hemisphere.
        """
        axis = normalize(np.asarray(axis, dtype=np.float64))
        directions = normalize(np.atleast_2d(np.asarray(directions, dtype=np.float64)))
        return self.intensity_at(batch_dot(directions, axis))

    def intensity_at(self, cos_theta: np.ndarray) -> np.ndarray:
        """Radiant intensity (mW/sr) at off-axis cosine *cos_theta*.

        *cos_theta* is the cosine between the boresight and the direction
        towards the target; it is clipped to ``[0, 1]``, so nothing is
        emitted behind the emitting hemisphere.
        """
        cos_theta = np.clip(cos_theta, 0.0, 1.0)
        return self.radiant_intensity_mw_sr * cos_theta ** self._exponent

    def irradiance_at(self,
                      position: np.ndarray,
                      axis: np.ndarray,
                      targets: np.ndarray) -> np.ndarray:
        """Irradiance (mW/mm^2) produced at *targets* by this LED.

        Applies the inverse-square law with the angular lobe; *targets* is a
        ``(T, 3)`` array of points in the same millimetre frame as *position*.
        """
        position = np.asarray(position, dtype=np.float64)
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        offsets = targets - position
        r2 = np.sum(offsets * offsets, axis=-1)
        # Guard the singular point at the LED itself: clamp to one package
        # radius, below which the far-field model is meaningless anyway.
        min_r2 = (self.diameter_mm / 2.0) ** 2
        r2 = np.maximum(r2, min_r2)
        intensity = self.intensity_towards(axis, offsets)
        return intensity / r2
