"""Property-based tests for the feature library invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.features import frequency as fd
from repro.features import timedomain as td
from repro.features.extractor import FeatureExtractor
from repro.features.registry import extended_registry, feature_registry
from repro.features.series import Series

signals = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=0, max_value=150),
    elements=st.floats(min_value=-1e5, max_value=1e5,
                       allow_nan=False, allow_infinity=False))

# inputs at the edges of the families' guards: signed zeros, NaN, ±inf,
# denormals, and heavy ties (values from a three-element alphabet)
_edge_values = st.sampled_from(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
     2.2250738585072014e-308, 1.0, 2.0])
_tie_values = st.sampled_from([0.0, 1.0, 3.0])
adversarial_signals = st.one_of(
    arrays(dtype=np.float64, shape=st.integers(min_value=0, max_value=600),
           elements=st.one_of(
               st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False),
               _edge_values, _tie_values)),
    arrays(dtype=np.float64, shape=st.integers(min_value=0, max_value=600),
           elements=_tie_values))

positive_signals = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=4, max_value=150),
    elements=st.floats(min_value=0.0, max_value=1e5,
                       allow_nan=False, allow_infinity=False))


@given(signals)
@settings(max_examples=30, deadline=None)
def test_every_registry_feature_is_finite(x):
    for spec in feature_registry():
        assert np.isfinite(spec.compute(x)), spec.name


@given(positive_signals)
@settings(max_examples=40, deadline=None)
def test_extractor_vector_finite_and_stable(x):
    ext = FeatureExtractor.bold()
    v1 = ext.extract(x)
    v2 = ext.extract(x)
    assert np.all(np.isfinite(v1))
    np.testing.assert_array_equal(v1, v2)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# a subset in non-registry order: spectrum, entropy, correlation and
# chunk features before the moments they share
_SUBSET = ("fft_spectral_spread", "sample_entropy",
           "partial_autocorrelation__lag=3",
           "energy_ratio_by_chunks__chunk=7_n_chunks=10",
           "autocorrelation_relative__fraction=0.33", "approximate_entropy",
           "cwt_energy__width=2.0", "cwt_peak_width",
           "ar_coefficient__k=2_order=4", "autocorrelation__lag=3",
           "standard_deviation", "quantile__q=0.1")
_EXTRACTORS = (FeatureExtractor.full(), FeatureExtractor.bold(),
               FeatureExtractor.for_names(_SUBSET),
               FeatureExtractor(specs=extended_registry()))


@given(adversarial_signals)
@settings(max_examples=40, deadline=None)
def test_extract_matches_per_spec_compute(x):
    """Shared intermediates change no bit: ``extract`` equals each spec
    computed on its own, and ``extract_many`` rows equal ``extract``."""
    for extractor in _EXTRACTORS:
        vector = extractor.extract(x)
        alone = [spec.compute(x) for spec in extractor.specs]
        assert np.array_equal(_bits(vector), _bits(alone)), extractor.names
        batch = extractor.extract_many([x, x[::-1]])
        assert np.array_equal(_bits(batch[0]), _bits(vector))
        assert np.array_equal(_bits(batch[1]),
                              _bits(extractor.extract(x[::-1])))


_huge_values = st.sampled_from([1e154, -1e200, 1e300, -1.7e308, 1.7e308])


@st.composite
def moment_signals(draw):
    """Adversarial signals, some at overflow scale, some with a constant
    run laid over them."""
    x = draw(st.one_of(
        adversarial_signals,
        arrays(dtype=np.float64, shape=st.integers(min_value=0, max_value=600),
               elements=st.one_of(
                   st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False, allow_infinity=False),
                   _edge_values, _huge_values))))
    if x.size and draw(st.booleans()):
        start = draw(st.integers(0, x.size - 1))
        x[start:start + draw(st.integers(1, x.size))] = draw(
            st.one_of(_edge_values, _tie_values))
    return x


@given(moment_signals(), st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_series_moments_and_quantile_match_numpy(x, q, seed):
    """The wrapper-free moments and the sorted-memo quantile carry the
    bits of ``np.mean``/``np.var``/``np.std``/``np.quantile`` on the
    cleaned signal, in any order of it."""
    quantiles = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, q)
    for signal in (x, np.random.default_rng(seed).permutation(x)):
        s = Series(signal)
        if s.x.size == 0:
            continue
        with np.errstate(all="ignore"):
            expected = ([np.mean(s.x), np.var(s.x), np.std(s.x)]
                        + [np.quantile(s.x, p) for p in quantiles])
            got = ([s.mean(), s.var(), s.std()]
                   + [td.quantile(s, p) for p in quantiles])
        assert np.array_equal(_bits(got), _bits(expected))


@given(signals)
@settings(max_examples=50, deadline=None)
def test_count_fractions_bounded(x):
    assert 0.0 <= td.count_above_mean(x) <= 1.0
    assert 0.0 <= td.count_below_mean(x) <= 1.0
    assert 0.0 <= td.longest_strike_above_mean(x) <= 1.0
    assert 0.0 <= td.longest_strike_below_mean(x) <= 1.0


@given(signals)
@settings(max_examples=50, deadline=None)
def test_location_features_bounded(x):
    for f in (td.first_location_of_maximum, td.first_location_of_minimum,
              td.last_location_of_maximum):
        assert 0.0 <= f(x) <= 1.0


@given(signals, st.integers(min_value=1, max_value=10))
@settings(max_examples=50, deadline=None)
def test_autocorrelation_bounded(x, lag):
    assert -1.5 <= td.autocorrelation(x, lag) <= 1.5


@given(signals)
@settings(max_examples=50, deadline=None)
def test_variance_consistency(x):
    np.testing.assert_allclose(td.standard_deviation(x) ** 2, td.variance(x),
                               rtol=1e-6, atol=1e-9)


@given(signals, st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_scale_invariant_features(x, scale):
    """Shape descriptors must not change when the RSS amplitude scales."""
    if x.size < 4 or np.ptp(x) < 1e-6:
        return
    scaled = scale * x
    np.testing.assert_allclose(td.count_above_mean(scaled),
                               td.count_above_mean(x), atol=1e-12)
    np.testing.assert_allclose(fd.fft_coefficient_abs(scaled, 1),
                               fd.fft_coefficient_abs(x, 1), rtol=1e-6)
    np.testing.assert_allclose(fd.fft_spectral_centroid(scaled),
                               fd.fft_spectral_centroid(x), rtol=1e-6)


@given(signals)
@settings(max_examples=40, deadline=None)
def test_energy_chunks_partition(x):
    if x.size == 0 or np.sum(x * x) < 1e-12:
        return
    total = sum(td.energy_ratio_by_chunks(x, 10, c) for c in range(10))
    np.testing.assert_allclose(total, 1.0, rtol=1e-6)


@given(st.integers(min_value=2, max_value=400),
       st.floats(min_value=0.5, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_ricker_zero_mean(points, width):
    # zero mean only holds when the window is wide enough to avoid
    # truncating the wavelet's negative lobes and the width spans enough
    # samples for the discrete sum to approximate the integral
    if points < 10 * width or width < 2.0:
        return
    w = fd.ricker_wavelet(points, width)
    assert abs(w.sum()) < 1e-3 * max(1.0, np.abs(w).max() * points)
