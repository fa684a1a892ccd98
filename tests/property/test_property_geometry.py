"""Property-based tests for geometry and the radiometric primitives."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.optics.emitter import NirLed
from repro.optics.geometry import (
    angle_between,
    batch_dot,
    normalize,
    rotate_about_axis,
)
from repro.optics.photodiode import Photodiode
from repro.optics.shield import Shield

vectors = arrays(
    dtype=np.float64, shape=3,
    elements=st.floats(min_value=-100.0, max_value=100.0,
                       allow_nan=False, allow_infinity=False))

nonzero_vectors = vectors.filter(lambda v: np.linalg.norm(v) > 1e-6)

angles = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


@given(nonzero_vectors)
@settings(max_examples=60, deadline=None)
def test_normalize_unit_length(v):
    np.testing.assert_allclose(np.linalg.norm(normalize(v)), 1.0, rtol=1e-9)


@given(nonzero_vectors, nonzero_vectors)
@settings(max_examples=60, deadline=None)
def test_angle_symmetric_and_bounded(a, b):
    theta = angle_between(a, b)
    np.testing.assert_allclose(theta, angle_between(b, a), rtol=1e-9)
    assert 0.0 <= theta <= np.pi + 1e-9


@given(vectors, nonzero_vectors, angles)
@settings(max_examples=60, deadline=None)
def test_rotation_preserves_norm(v, axis, angle):
    rotated = rotate_about_axis(v, axis, angle)
    np.testing.assert_allclose(np.linalg.norm(rotated), np.linalg.norm(v),
                               rtol=1e-7, atol=1e-7)


@given(vectors, nonzero_vectors, angles)
@settings(max_examples=60, deadline=None)
def test_rotation_invertible(v, axis, angle):
    there = rotate_about_axis(v, axis, angle)
    back = rotate_about_axis(there, axis, -angle)
    np.testing.assert_allclose(back, v, rtol=1e-6, atol=1e-6)


@given(nonzero_vectors, nonzero_vectors, angles)
@settings(max_examples=60, deadline=None)
def test_rotation_preserves_angles(a, b, angle):
    axis = np.array([0.3, -0.5, 0.8])
    ra = rotate_about_axis(a, axis, angle)
    rb = rotate_about_axis(b, axis, angle)
    np.testing.assert_allclose(angle_between(ra, rb), angle_between(a, b),
                               rtol=1e-5, atol=1e-6)


@given(nonzero_vectors)
@settings(max_examples=60, deadline=None)
def test_led_intensity_bounds(direction):
    led = NirLed()
    out = led.intensity_towards(np.array([0.0, 0.0, 1.0]), direction)
    assert np.all(out >= 0.0)
    assert np.all(out <= led.radiant_intensity_mw_sr + 1e-9)


@given(nonzero_vectors)
@settings(max_examples=60, deadline=None)
def test_pd_response_bounds(incoming):
    pd = Photodiode()
    out = pd.angular_response(np.array([0.0, 0.0, 1.0]), incoming)
    assert np.all(out >= 0.0)
    assert np.all(out <= 1.0 + 1e-9)


@given(nonzero_vectors)
@settings(max_examples=60, deadline=None)
def test_shield_transmission_bounds(incoming):
    shield = Shield()
    out = shield.transmission(np.array([0.0, 0.0, 1.0]), incoming)
    assert np.all(out >= shield.leakage - 1e-12)
    assert np.all(out <= 1.0 + 1e-12)


@given(nonzero_vectors, nonzero_vectors)
@settings(max_examples=60, deadline=None)
def test_batch_dot_matches_numpy(a, b):
    # np.dot is rounded too (OpenBLAS fuses its multiply-adds), so where the
    # products cancel the two differ in the last bits of a near-zero result
    # and no tolerance relative to that result can hold.  Both are held to
    # the rounding bound of a three-term dot product about the exact value:
    # gamma_3 * sum|a_i b_i|, plus an underflow allowance per product.
    products = [Fraction(x) * Fraction(y) for x, y in zip(a, b)]
    exact = sum(products)
    unit = Fraction(1, 2**53)
    bound = (3 * unit / (1 - 3 * unit) * sum(abs(p) for p in products)
             + 3 * Fraction(2.0**-1074))
    ours = Fraction(float(batch_dot(a, b)))
    assert abs(ours - exact) <= bound
    assert abs(ours - Fraction(float(np.dot(a, b)))) <= 2 * bound
