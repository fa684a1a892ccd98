"""Property-based tests for SBC and the prefilter (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.sbc import StreamingSbc, prefilter, sbc_transform

signals = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=0, max_value=200),
    elements=st.floats(min_value=-1e4, max_value=1e4,
                       allow_nan=False, allow_infinity=False))

windows = st.integers(min_value=1, max_value=8)


@given(signals, windows)
@settings(max_examples=60, deadline=None)
def test_sbc_nonnegative(x, w):
    assert np.all(sbc_transform(x, w) >= 0.0)


@given(signals, windows)
@settings(max_examples=60, deadline=None)
def test_sbc_output_length_matches(x, w):
    assert sbc_transform(x, w).shape == x.shape


@given(signals, windows, st.floats(min_value=-1e5, max_value=1e5,
                                   allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_sbc_offset_invariance(x, w, offset):
    """ΔRSS² removes any constant offset exactly (N_static rejection)."""
    np.testing.assert_allclose(sbc_transform(x + offset, w),
                               sbc_transform(x, w), atol=1e-5)


@given(signals, windows, st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_sbc_quadratic_scaling(x, w, scale):
    """Scaling the RSS by a scales ΔRSS² by a² (it is a squared difference)."""
    np.testing.assert_allclose(sbc_transform(scale * x, w),
                               scale ** 2 * sbc_transform(x, w),
                               rtol=1e-6, atol=1e-9)


@given(signals, windows)
@settings(max_examples=40, deadline=None)
def test_streaming_matches_offline(x, w):
    stream = StreamingSbc(w)
    np.testing.assert_allclose(stream.push_block(x), sbc_transform(x, w),
                               rtol=1e-9, atol=1e-9)


@given(signals, windows)
@settings(max_examples=40, deadline=None)
def test_prefilter_preserves_bounds(x, w):
    """A moving average never exceeds the input's range."""
    out = prefilter(x, w)
    if x.size:
        assert out.min() >= x.min() - 1e-9
        assert out.max() <= x.max() + 1e-9


@given(signals, windows)
@settings(max_examples=40, deadline=None)
def test_prefilter_constant_fixed_point(x, w):
    if x.size == 0:
        return
    c = np.full_like(x, 3.7)
    np.testing.assert_allclose(prefilter(c, w), c)
