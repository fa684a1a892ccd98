"""The radiometric forward model: scene -> per-photodiode photocurrent.

For each (LED, patch, PD) triple and every time sample the engine evaluates
the classic two-bounce Lambertian link budget::

    E_patch   = I_led(theta_e) * cos(theta_in) / r1^2          irradiance at patch
    L_patch   = rho * E_patch / pi                             reflected radiance
    Phi_pd    = L_patch * A_patch * cos(theta_out)
                * A_pd * g_pd(theta_r) * g_shield(theta_r) / r2^2
    i_pd      = responsivity * Phi_pd

summed over LEDs and patches, plus a constant direct LED->PD crosstalk term
(board-level light leakage) and the ambient contribution admitted by the
shield.  Every term is vectorized over the time axis, so computing a full
gesture recording is a handful of numpy operations per (LED, PD) pair.

For bulk workloads (campaign generation, training sweeps) the per-scene
Python loop over (LED, patch, PD) triples dominates wall-clock, so
:meth:`RadiometricEngine.photocurrents_batch_ua` evaluates *many* scenes at
once, one patch slot at a time: the k-th patch of every scene that has one
is stacked onto one row axis, held as contiguous x/y/z columns, and each
link-budget term is computed in a single numpy operation per (slot, LED)
or (slot, PD).  Working slot by slot bounds the pass's temporaries by the
batch's time rows rather than by all its patch rows.  Each leg's norm,
unit vector and off-axis cosine are computed once and shared by the
element's angular lobe (:meth:`NirLed.intensity_at`,
:meth:`Photodiode.response_at`) and the shield
(:meth:`Shield.transmission_at`).  The batched path applies exactly
the same elementwise operations in exactly the same accumulation order as
the scalar path, so its output is bit-identical to calling
:meth:`photocurrents_ua` scene by scene (elementwise ufuncs do not depend
on array length).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.optics.array import SensorArray, SensorElement
from repro.optics.geometry import _EPS, batch_dot, normalize
from repro.optics.scene import ReflectivePatch, Scene

__all__ = ["RadiometricEngine"]


def _unit(x: np.ndarray, y: np.ndarray, z: np.ndarray
          ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Norms and :func:`normalize` of the rows ``(x, y, z)``, bit for bit.

    ``np.linalg.norm`` and :func:`batch_dot` reduce a length-3 last axis
    with ``add.reduce``, which sums ``(v0 + v1) + v2``; the columns sum
    in that order without the reduction's per-row overhead.
    """
    norm = np.sqrt((x * x + y * y) + z * z)
    safe = np.where(norm < _EPS, 1.0, norm)
    return norm, (x / safe, y / safe, z / safe)


def _dot(a, b) -> np.ndarray:
    """:func:`batch_dot` of column triples (or a column triple and a
    3-vector), bit for bit."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


@dataclass(frozen=True)
class RadiometricEngine:
    """Evaluates the forward model for a fixed sensor array.

    Parameters
    ----------
    array:
        The LED/photodiode board.
    crosstalk_ua:
        Constant direct LED->PD leakage photocurrent per LED (uA).  Real
        boards always exhibit some; it contributes to ``N_static``.
    near_field_clip_mm:
        Distances below this are clamped when evaluating the inverse-square
        terms; the far-field point model breaks down closer than roughly one
        package diameter.
    """

    array: SensorArray
    crosstalk_ua: float = 0.15
    near_field_clip_mm: float = 3.0

    def __post_init__(self) -> None:
        if self.crosstalk_ua < 0.0:
            raise ValueError("crosstalk_ua must be non-negative")
        if self.near_field_clip_mm <= 0.0:
            raise ValueError("near_field_clip_mm must be positive")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def photocurrents_ua(self, scene: Scene) -> np.ndarray:
        """Photocurrent matrix for *scene*.

        Returns
        -------
        numpy.ndarray
            ``(T, n_channels)`` photocurrents in uA, channel order matching
            :attr:`SensorArray.channel_names`.
        """
        n_t = scene.n_samples
        pds = self.array.photodiodes
        currents = np.zeros((n_t, len(pds)), dtype=np.float64)

        for j, pd_elem in enumerate(pds):
            total = np.zeros(n_t, dtype=np.float64)
            for patch in scene.patches:
                for led_elem in self.array.leds:
                    total += self._reflected_flux_mw(led_elem, patch, pd_elem)
                # Ambient light reflected off the patch is second-order
                # relative to direct ambient on the PD and is folded into
                # the ambient acceptance term below.
            pd = pd_elem.device
            wavelength = self.array.leds[0].device.wavelength_nm
            currents[:, j] = pd.photocurrent_ua(total, wavelength_nm=wavelength)
            currents[:, j] += self._ambient_current_ua(scene, pd_elem)
            currents[:, j] += self.crosstalk_ua * len(self.array.leds)
        return currents

    def photocurrents_batch_ua(self, scenes: Sequence[Scene]
                               ) -> list[np.ndarray]:
        """Photocurrent matrices for many scenes in stacked numpy operations.

        Equivalent to ``[self.photocurrents_ua(s) for s in scenes]`` but the
        (LED, patch, PD) link budgets of every scene are evaluated together,
        one patch slot at a time, on contiguous x/y/z columns of a
        concatenated row axis, eliminating the per-scene Python loop that
        dominates bulk generation.  Scenes may differ in length and in
        patch count.

        Returns
        -------
        list of numpy.ndarray
            One ``(T_i, n_channels)`` matrix per scene, bit-identical to
            the scalar path: the same elementwise operations are applied
            in the same accumulation order.
        """
        scenes = list(scenes)
        if not scenes:
            return []
        leds = self.array.leds
        pds = self.array.photodiodes
        shield = self.array.shield
        wavelength = leds[0].device.wavelength_nm

        # Time axis: the scenes in descending patch count (stable), so the
        # scenes that have a k-th patch own a prefix of it.  Patch slot k
        # stacks the k-th patch of each of those scenes in time-axis order,
        # so its rows line up with that prefix.
        order = sorted(range(len(scenes)),
                       key=lambda i: -len(scenes[i].patches))
        t_off = np.cumsum([0] + [scenes[i].n_samples for i in order])
        m_rows = int(t_off[-1])
        slots = [[scenes[i].patches[k] for i in order
                  if len(scenes[i].patches) > k]
                 for k in range(len(scenes[order[0]].patches))]
        materials: dict = {}          # distinct material -> its index
        slot_ix = [[materials.setdefault(p.material, len(materials))
                    for p in slot] for slot in slots]
        # rho[led][m]: distinct material m's reflectance at the LED's
        # wavelength
        rho = [np.array([m.reflectance(e.device.wavelength_nm)
                         for m in materials]) for e in leds]

        # One slot at a time, so the pass's temporaries span one slot's
        # rows, never every patch row of the batch.  Each slot adds its
        # flux over its prefix, LEDs inner: the scalar order (patches
        # outer, LEDs inner, strict left-to-right addition from 0.0).
        totals = np.zeros((len(pds), m_rows), dtype=np.float64)
        for slot, ix in zip(slots, slot_ix):
            rows = int(t_off[len(slot)])
            points = np.concatenate([p.positions_mm for p in slot]).T.copy()
            normals = np.concatenate([p.normals for p in slot]).T.copy()
            areas = np.concatenate([p.area_mm2 for p in slot])
            sizes = [p.n_samples for p in slot]
            # rad_area[led] holds (radiance * patch_area) per row, i.e. the
            # LED-dependent prefix of the scalar flux expression.
            rad_area = [self._led_leg(led_elem, points, normals,
                                      np.repeat(rho_led[ix], sizes)) * areas
                        for led_elem, rho_led in zip(leds, rho)]
            for total, pd_elem in zip(totals, pds):
                for flux in self._pd_leg(pd_elem, points, normals, rad_area):
                    total[:rows] += flux

        ambient = np.concatenate([scenes[i].ambient_mw_mm2 for i in order])
        out_cat = np.zeros((m_rows, len(pds)), dtype=np.float64)
        acceptance = shield.ambient_acceptance()
        for j, (total, pd_elem) in enumerate(zip(totals, pds)):
            pd = pd_elem.device
            col = pd.photocurrent_ua(total, wavelength_nm=wavelength)
            col += pd.photocurrent_ua(
                ambient * pd.active_area_mm2 * acceptance)
            col += self.crosstalk_ua * len(leds)
            out_cat[:, j] = col
        return [out_cat[t_off[at]:t_off[at + 1]].copy()
                for at in np.argsort(order)]

    def _led_leg(self, led_elem: SensorElement, points: np.ndarray,
                 normals: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """``rho * irradiance / pi`` per row: one LED -> patch leg.

        *points* and *normals* are ``(3, n)`` x/y/z columns; *rho* holds
        each row's reflectance at the LED's wavelength.
        """
        lx, ly, lz = led_elem.position
        r1, dir1 = _unit(points[0] - lx, points[1] - ly, points[2] - lz)
        r1 = np.maximum(r1, self.near_field_clip_mm)
        # intensity_towards normalizes dir1 again (not the identity in
        # floating point); transmission's normalize(-dir1) is its
        # negation, so lobe and shield read one cosine.
        cos_led = _dot(_unit(*dir1)[1], normalize(led_elem.axis_vector))
        intensity = (led_elem.device.intensity_at(cos_led)
                     * self.array.shield.transmission_at(cos_led))
        # The scalar path's -dir1 . normal is dir1 . -normal, bit for bit.
        cos_in = np.clip(_dot(dir1, -normals), 0.0, 1.0)
        irradiance = intensity * cos_in / (r1 * r1)
        return rho * irradiance / np.pi

    def _pd_leg(self, pd_elem: SensorElement, points: np.ndarray,
                normals: np.ndarray, rad_area: list[np.ndarray]
                ) -> list[np.ndarray]:
        """Flux (mW) per row reaching *pd_elem*, one array per LED.

        *points* and *normals* are ``(3, n)`` x/y/z columns; *rad_area*
        holds each LED's ``radiance * patch_area`` rows.
        """
        pd = pd_elem.device
        qx, qy, qz = pd_elem.position
        r2, dir2 = _unit(qx - points[0], qy - points[1], qz - points[2])
        r2 = np.maximum(r2, self.near_field_clip_mm)
        cos_out = np.clip(_dot(dir2, normals), 0.0, 1.0)
        # angular_response and transmission both read
        # -normalize(dir2) . axis, i.e. normalize(dir2) . -axis.
        cos_pd = _dot(_unit(*dir2)[1], -normalize(pd_elem.axis_vector))
        gate = pd.response_at(cos_pd) * self.array.shield.transmission_at(
            cos_pd)
        return [ra * cos_out * pd.active_area_mm2 * gate / (r2 * r2)
                for ra in rad_area]

    # ------------------------------------------------------------------
    # model terms
    # ------------------------------------------------------------------
    def _reflected_flux_mw(self,
                           led_elem: SensorElement,
                           patch: ReflectivePatch,
                           pd_elem: SensorElement) -> np.ndarray:
        """Optical power (mW) reaching *pd_elem* via *patch* from *led_elem*."""
        led = led_elem.device
        pd = pd_elem.device
        shield = self.array.shield

        positions = patch.positions_mm                       # (T, 3)
        normals = patch.normals                              # (T, 3) unit

        # --- LED -> patch leg -------------------------------------------------
        to_patch = positions - led_elem.position             # (T, 3)
        r1 = np.linalg.norm(to_patch, axis=-1)
        r1 = np.maximum(r1, self.near_field_clip_mm)
        dir1 = normalize(to_patch)
        intensity = led.intensity_towards(led_elem.axis_vector, dir1)  # mW/sr
        # LEDs sit behind the same shield; clip their emission cone too.
        intensity = intensity * shield.transmission(
            led_elem.axis_vector, -dir1)
        cos_in = np.clip(batch_dot(-dir1, normals), 0.0, 1.0)
        irradiance = intensity * cos_in / (r1 * r1)          # mW/mm^2

        # --- patch -> PD leg --------------------------------------------------
        rho = patch.material.reflectance(led.wavelength_nm)
        radiance = rho * irradiance / np.pi                  # mW/(mm^2 sr)

        to_pd = pd_elem.position - positions                 # (T, 3)
        r2 = np.linalg.norm(to_pd, axis=-1)
        r2 = np.maximum(r2, self.near_field_clip_mm)
        dir2 = normalize(to_pd)
        cos_out = np.clip(batch_dot(dir2, normals), 0.0, 1.0)
        gate = (pd.angular_response(pd_elem.axis_vector, dir2)
                * shield.transmission(pd_elem.axis_vector, dir2))

        flux = (radiance * patch.area_mm2 * cos_out
                * pd.active_area_mm2 * gate / (r2 * r2))     # mW
        return flux

    def _ambient_current_ua(self, scene: Scene,
                            pd_elem: SensorElement) -> np.ndarray:
        """Photocurrent from ambient NIR admitted through the shield."""
        pd = pd_elem.device
        acceptance = self.array.shield.ambient_acceptance()
        flux = scene.ambient_mw_mm2 * pd.active_area_mm2 * acceptance
        return pd.photocurrent_ua(flux)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def static_floor_ua(self) -> float:
        """Photocurrent each channel reads with an empty, dark scene."""
        return self.crosstalk_ua * len(self.array.leds)
