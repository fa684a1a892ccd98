"""Unit tests for the radiometric forward model (scene + engine)."""

import tracemalloc

import numpy as np
import pytest

from repro.optics.array import airfinger_array
from repro.optics.engine import RadiometricEngine
from repro.optics.materials import SKIN, MATTE_BLACK
from repro.optics.scene import ReflectivePatch, Scene


def _hover_scene(z_mm: float, n: int = 10, area: float = 80.0,
                 x_mm: float = 0.0, material=SKIN,
                 ambient: float = 0.0) -> Scene:
    times = np.arange(n) / 100.0
    patch = ReflectivePatch(
        name="tip",
        positions_mm=np.tile([x_mm, 0.0, z_mm], (n, 1)),
        normals=np.array([0.0, 0.0, -1.0]),
        area_mm2=area,
        material=material)
    return Scene(times_s=times, patches=[patch], ambient_mw_mm2=ambient)


@pytest.fixture(scope="module")
def engine():
    return RadiometricEngine(array=airfinger_array())


class TestReflectivePatch:
    def test_broadcast_normals(self):
        p = ReflectivePatch("p", np.zeros((5, 3)))
        assert p.normals.shape == (5, 3)

    def test_scalar_area_expanded(self):
        p = ReflectivePatch("p", np.zeros((4, 3)), area_mm2=10.0)
        np.testing.assert_array_equal(p.area_mm2, np.full(4, 10.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ReflectivePatch("p", np.zeros((4, 3)), normals=np.zeros((3, 3)))

    def test_negative_area(self):
        with pytest.raises(ValueError):
            ReflectivePatch("p", np.zeros((4, 3)), area_mm2=-1.0)


class TestScene:
    def test_time_base_enforced(self):
        patch = ReflectivePatch("p", np.zeros((5, 3)))
        with pytest.raises(ValueError):
            Scene(times_s=np.arange(4) / 100.0, patches=[patch])

    def test_ambient_expansion(self):
        s = Scene(times_s=np.arange(3) / 100.0, ambient_mw_mm2=0.5)
        np.testing.assert_array_equal(s.ambient_mw_mm2, [0.5, 0.5, 0.5])

    def test_add_patch_checks_length(self):
        s = Scene(times_s=np.arange(3) / 100.0)
        with pytest.raises(ValueError):
            s.add_patch(ReflectivePatch("p", np.zeros((4, 3))))


class TestEngine:
    def test_output_shape(self, engine):
        out = engine.photocurrents_ua(_hover_scene(20.0, n=7))
        assert out.shape == (7, 3)

    def test_signal_decreases_with_distance(self, engine):
        # hover directly over L1 so both heights sit inside the LED cone
        near = engine.photocurrents_ua(_hover_scene(15.0, x_mm=-6.0)).mean()
        far = engine.photocurrents_ua(_hover_scene(30.0, x_mm=-6.0)).mean()
        assert near > far > 0

    def test_crosstalk_floor(self, engine):
        empty = Scene(times_s=np.arange(5) / 100.0)
        out = engine.photocurrents_ua(empty)
        np.testing.assert_allclose(out, engine.static_floor_ua())

    def test_lateral_position_affects_channel_balance(self, engine):
        left = engine.photocurrents_ua(_hover_scene(15.0, x_mm=-10.0)).mean(axis=0)
        right = engine.photocurrents_ua(_hover_scene(15.0, x_mm=10.0)).mean(axis=0)
        # finger over P1 side boosts P1 relative to P3 and vice versa
        assert left[0] - left[2] > 0
        assert right[2] - right[0] > 0

    def test_dark_material_reflects_less(self, engine):
        skin = engine.photocurrents_ua(_hover_scene(15.0)).mean()
        black = engine.photocurrents_ua(
            _hover_scene(15.0, material=MATTE_BLACK)).mean()
        assert skin > black

    def test_area_scales_signal(self, engine):
        small = engine.photocurrents_ua(_hover_scene(20.0, area=40.0)).mean()
        large = engine.photocurrents_ua(_hover_scene(20.0, area=120.0)).mean()
        floor = engine.static_floor_ua()
        np.testing.assert_allclose((large - floor) / (small - floor), 3.0,
                                   rtol=1e-6)

    def test_ambient_adds_uniform_current(self, engine):
        dark = engine.photocurrents_ua(_hover_scene(20.0, ambient=0.0))
        lit = engine.photocurrents_ua(_hover_scene(20.0, ambient=0.001))
        delta = lit - dark
        assert np.all(delta > 0)
        np.testing.assert_allclose(delta, delta[0, 0], rtol=1e-9)

    def test_patch_behind_board_invisible(self, engine):
        below = _hover_scene(-20.0)
        out = engine.photocurrents_ua(below)
        np.testing.assert_allclose(out, engine.static_floor_ua(), atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadiometricEngine(array=airfinger_array(), crosstalk_ua=-1.0)

    def test_batch_temporaries_span_one_patch_slot(self, engine):
        # The batched pass works one patch slot at a time, so its traced
        # peak is a few dozen columns of the batch's time rows whatever the
        # patch count; stacking all 12 slots' rows at once peaked above 400.
        rng = np.random.default_rng(5)
        n, n_scenes, n_patches = 200, 16, 12
        times = np.arange(n) / 100.0
        scenes = [Scene(times_s=times, patches=[
            ReflectivePatch(f"p{k}", rng.normal([0.0, 0.0, 20.0], 5.0,
                                                (n, 3)),
                            normals=np.array([0.0, 0.0, -1.0]),
                            area_mm2=10.0, material=SKIN)
            for k in range(n_patches)]) for _ in range(n_scenes)]
        column = n * n_scenes * np.dtype(np.float64).itemsize
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            engine.photocurrents_batch_ua(scenes)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 64 * column, f"peak {peak / column:.0f} columns"
