"""Property: the batched radiometric pass is the scalar pass, bit for bit.

:meth:`RadiometricEngine.photocurrents_batch_ua` works on x/y/z columns,
shares each optical leg's cosine between the element's lobe and the
shield, interpolates each distinct material's reflectance once and adds
patch slots over a time axis ordered by patch count.  The per-scene
:meth:`RadiometricEngine.photocurrents_ua` is the reference it must
reproduce exactly, for any scenes and any split of the batch.

Bulk sample values come from a numpy generator seeded by hypothesis;
hypothesis draws the structure (board, scene lengths, patch counts,
materials, which degenerate rows a patch has) and shrinks it.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optics.array import (
    SensorArray,
    SensorElement,
    airfinger_array,
    cross_array,
    single_pair_array,
)
from repro.optics.emitter import NirLed
from repro.optics.engine import RadiometricEngine
from repro.optics.materials import (
    CLOTH,
    HAND_BACK,
    MATTE_BLACK,
    PLASTIC,
    SKIN,
    Material,
)
from repro.optics.photodiode import Photodiode
from repro.optics.scene import ReflectivePatch, Scene
from repro.optics.shield import Shield


def _tilted_array() -> SensorArray:
    """Element axes tilted off +Z (some given unnormalized), elements off
    the board plane, an LED at another wavelength and field of view, and
    a shield without penumbra."""
    pd = Photodiode()
    return SensorArray(elements=(
        SensorElement("P1", "pd", (-12.0, 0.0, 0.0), pd, (0.3, 0.0, 1.0)),
        SensorElement("L1", "led", (-6.0, 1.0, 0.5), NirLed(),
                      (0.0, -0.2, 2.0)),
        SensorElement("P2", "pd", (0.0, 0.0, 0.0), pd, (-0.1, 0.1, 0.9)),
        SensorElement("L2", "led", (6.0, -1.0, 0.0),
                      NirLed(wavelength_nm=850.0, fov_deg=30.0),
                      (-0.25, 0.05, 1.0)),
        SensorElement("P3", "pd", (12.0, 0.0, 1.0),
                      Photodiode(fov_deg=100.0), (-0.3, 0.0, 1.0)),
    ), shield=Shield(cutoff_deg=30.0, penumbra_deg=0.0))


ARRAYS = {"airfinger": airfinger_array(), "cross": cross_array(),
          "single_pair": single_pair_array(), "tilted": _tilted_array()}

#: ``SKIN`` twice: once by identity and once as an equal copy
MATERIALS = (SKIN, HAND_BACK, CLOTH, PLASTIC, MATTE_BLACK,
             Material("skin", SKIN.wavelengths_nm, SKIN.reflectances),
             Material("grey", (700.0, 900.0, 1000.0), (0.3, 0.7, 0.1)))

#: degenerate rows a patch may carry
SPECIALS = ("on_element", "near_field", "zero_normal", "zero_area",
            "area_per_sample")


def _patch(rng: np.random.Generator, n: int, array: SensorArray,
           material: Material, specials: frozenset) -> ReflectivePatch:
    positions = rng.uniform(-30.0, 30.0, (n, 3)) + (0.0, 0.0, 20.0)
    anchors = np.array([e.position for e in array.elements])
    if "on_element" in specials:
        rows = rng.random(n) < 0.5
        positions[rows] = anchors[rng.integers(len(anchors), size=rows.sum())]
    if "near_field" in specials:
        rows = rng.random(n) < 0.5
        positions[rows] = (
            anchors[rng.integers(len(anchors), size=rows.sum())]
            + rng.uniform(-1.7, 1.7, (rows.sum(), 3)))
    # non-unit normals, some pointing away from the board
    normals = rng.normal(size=(n, 3)) * rng.uniform(0.1, 5.0, (n, 1))
    if "zero_normal" in specials:
        normals[rng.random(n) < 0.5] = 0.0
    area = (rng.uniform(0.0, 300.0, n) if "area_per_sample" in specials
            else float(rng.uniform(0.0, 300.0)))
    if "zero_area" in specials:
        area = np.where(rng.random(n) < 0.5, 0.0, area)
    return ReflectivePatch(name="p", positions_mm=positions, normals=normals,
                           area_mm2=area, material=material)


@st.composite
def batches(draw):
    """``(engine, scenes)``: 1-4 scenes of 1-60 samples and 0-4 patches
    on one of :data:`ARRAYS`."""
    array = ARRAYS[draw(st.sampled_from(sorted(ARRAYS)))]
    engine = RadiometricEngine(
        array=array, crosstalk_ua=draw(st.sampled_from((0.0, 0.15))),
        near_field_clip_mm=draw(st.sampled_from((0.5, 3.0, 10.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenes = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 60))
        patches = [
            _patch(rng, n, array, draw(st.sampled_from(MATERIALS)),
                   draw(st.frozensets(st.sampled_from(SPECIALS))))
            for _ in range(draw(st.integers(0, 4)))]
        ambient = (rng.uniform(0.0, 0.05, n) if draw(st.booleans())
                   else draw(st.floats(0.0, 0.05)))
        scenes.append(Scene(times_s=np.arange(n) / 100.0, patches=patches,
                            ambient_mw_mm2=ambient))
    return engine, scenes


def _splits(n: int):
    """Every cut of ``range(n)`` into consecutive groups, as bounds."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        bounds = [0, *(i + 1 for i, cut in enumerate(cuts) if cut), n]
        yield list(zip(bounds, bounds[1:]))


@given(batches())
@settings(max_examples=120, deadline=None)
def test_batched_pass_is_the_scalar_pass(batch):
    engine, scenes = batch
    reference = [engine.photocurrents_ua(s) for s in scenes]
    for split in _splits(len(scenes)):
        out = [current for lo, hi in split
               for current in engine.photocurrents_batch_ua(scenes[lo:hi])]
        assert len(out) == len(scenes)
        for i, (got, want) in enumerate(zip(out, reference)):
            assert np.array_equal(got, want), (split, i)
