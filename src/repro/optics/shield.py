"""The 3D-printed black shield that limits the photodiodes' field of view.

Section IV-B of the paper: "we add a 3D-printed black shield to limit
Field-of-View (FoV) of the PDs, which greatly reduces the effect of noise."
We model the shield as a hard angular cutoff with a soft penumbra: rays
within ``cutoff_deg`` of the boresight pass unattenuated, rays beyond
``cutoff_deg + penumbra_deg`` are blocked, and the transition is linear.
A small leakage term models imperfect absorption of the matte print.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.optics.geometry import batch_dot, normalize

__all__ = ["Shield"]


@dataclass(frozen=True)
class Shield:
    """Angular gate applied to every ray reaching a shielded element.

    Parameters
    ----------
    cutoff_deg:
        Half-angle of the unobstructed cone.
    penumbra_deg:
        Width of the soft edge beyond the cutoff.
    leakage:
        Transmission fraction for fully blocked rays (stray reflections off
        the matte interior), typically a fraction of a percent.
    """

    cutoff_deg: float = 26.0
    penumbra_deg: float = 6.0
    leakage: float = 0.004

    def __post_init__(self) -> None:
        if not 0.0 < self.cutoff_deg < 90.0:
            raise ValueError(f"cutoff_deg must be in (0, 90), got {self.cutoff_deg}")
        if self.penumbra_deg < 0.0:
            raise ValueError("penumbra_deg must be non-negative")
        if not 0.0 <= self.leakage < 1.0:
            raise ValueError("leakage must be in [0, 1)")

    def transmission(self, axis: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        """Transmission factor (leakage..1) for rays arriving along *incoming*.

        *incoming* points from the source towards the shielded element, so a
        boresight arrival has ``incoming == -axis`` (same convention as
        :meth:`repro.optics.photodiode.Photodiode.angular_response`).
        """
        axis = normalize(np.asarray(axis, dtype=np.float64))
        incoming = normalize(np.atleast_2d(np.asarray(incoming, dtype=np.float64)))
        return self.transmission_at(batch_dot(-incoming, axis))

    def transmission_at(self, cos_theta: np.ndarray) -> np.ndarray:
        """Transmission factor (leakage..1) at off-axis cosine *cos_theta*.

        *cos_theta* is the cosine between the boresight and the reversed
        arrival direction (``-incoming``), as in :meth:`transmission`.
        """
        cos_theta = np.clip(cos_theta, -1.0, 1.0)
        theta_deg = np.degrees(np.arccos(cos_theta))
        if self.penumbra_deg == 0.0:
            open_frac = (theta_deg <= self.cutoff_deg).astype(np.float64)
        else:
            open_frac = np.clip(
                (self.cutoff_deg + self.penumbra_deg - theta_deg) / self.penumbra_deg,
                0.0, 1.0)
        return self.leakage + (1.0 - self.leakage) * open_frac

    def ambient_acceptance(self) -> float:
        """Fraction of isotropic ambient light admitted by the shield.

        For a hemispherical ambient field the admitted fraction equals the
        projected-solid-angle ratio ``sin^2(cutoff)`` (ignoring the thin
        penumbra), plus the leakage floor for the rest.
        """
        sin2 = float(np.sin(np.radians(self.cutoff_deg)) ** 2)
        return sin2 + self.leakage * (1.0 - sin2)
