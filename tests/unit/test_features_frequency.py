"""Unit tests for the FFT and CWT (Ricker) feature families."""

import numpy as np
import pytest

from repro.features import frequency as fd


@pytest.fixture()
def tone():
    """Pure 5 Hz tone sampled at 100 Hz for 2 s."""
    return np.sin(2 * np.pi * 5.0 * np.arange(200) / 100.0)


class TestFftFeatures:
    def test_coefficient_peaks_at_tone_bin(self, tone):
        # 5 Hz over 200 samples at 100 Hz -> bin 10
        values = [fd.fft_coefficient_abs(tone, k) for k in range(1, 15)]
        assert int(np.argmax(values)) + 1 == 10

    def test_coefficient_amplitude_invariant(self, tone):
        a = fd.fft_coefficient_abs(tone, 10)
        b = fd.fft_coefficient_abs(100.0 * tone, 10)
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_coefficient_out_of_range(self, tone):
        assert fd.fft_coefficient_abs(tone, 10**6) == 0.0
        with pytest.raises(ValueError):
            fd.fft_coefficient_abs(tone, -1)

    def test_centroid_at_tone_frequency(self, tone):
        # relative frequency of 5 Hz at fs=100 is 0.05
        np.testing.assert_allclose(fd.fft_spectral_centroid(tone), 0.05,
                                   atol=0.01)

    def test_centroid_orders_slow_vs_fast(self):
        t = np.arange(300) / 100.0
        slow = np.sin(2 * np.pi * 1.0 * t)
        fast = np.sin(2 * np.pi * 8.0 * t)
        assert fd.fft_spectral_centroid(fast) > fd.fft_spectral_centroid(slow)

    def test_spread_small_for_tone(self, tone):
        noise = np.random.default_rng(0).normal(0, 1, 200)
        assert fd.fft_spectral_spread(tone) < fd.fft_spectral_spread(noise)

    def test_entropy_orders_tone_vs_noise(self, tone):
        noise = np.random.default_rng(0).normal(0, 1, 200)
        assert fd.fft_spectral_entropy(tone) < fd.fft_spectral_entropy(noise)

    def test_peak_frequency_bin(self, tone):
        np.testing.assert_allclose(fd.fft_peak_frequency_bin(tone), 0.05,
                                   atol=0.005)

    def test_degenerate_inputs(self):
        for x in (np.array([]), np.zeros(1), np.zeros(10)):
            assert fd.fft_coefficient_abs(x, 1) == 0.0
            assert fd.fft_spectral_centroid(x) == 0.0
            assert fd.fft_spectral_entropy(x) == 0.0


class TestRickerWavelet:
    def test_peak_at_centre(self):
        w = fd.ricker_wavelet(101, 10.0)
        assert int(np.argmax(w)) == 50

    def test_zero_mean(self):
        w = fd.ricker_wavelet(401, 8.0)
        np.testing.assert_allclose(w.sum(), 0.0, atol=1e-6)

    def test_negative_lobes(self):
        w = fd.ricker_wavelet(101, 5.0)
        assert w.min() < 0 < w.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            fd.ricker_wavelet(0, 1.0)
        with pytest.raises(ValueError):
            fd.ricker_wavelet(10, 0.0)


class TestCwt:
    def test_shape(self, tone):
        out = fd.cwt_ricker(tone, (2.0, 5.0))
        assert out.shape == (2, 200)

    def test_energy_amplitude_invariant(self, tone):
        a = fd.cwt_energy(tone, 5.0)
        b = fd.cwt_energy(3.0 * tone, 5.0)
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_peak_width_tracks_event_scale(self):
        narrow = np.zeros(300)
        narrow[150] = 1.0
        wide = np.exp(-0.5 * ((np.arange(300) - 150) / 25.0) ** 2)
        assert fd.cwt_peak_width(narrow) < fd.cwt_peak_width(wide)

    def test_degenerate(self):
        assert fd.cwt_energy(np.zeros(10)) == 0.0
        assert fd.cwt_peak_width(np.array([])) == 0.0


class TestSharedSpectrum:
    """FFT features sharing one spectrum must equal each spec computed alone."""

    def test_extractor_matches_standalone_specs(self):
        from repro.features import FeatureExtractor

        rng = np.random.default_rng(7)
        signal = rng.normal(0.0, 1.0, 180) ** 2
        extractor = FeatureExtractor.full()
        vector = extractor.extract(signal)
        cleaned = np.asarray(signal, dtype=np.float64).ravel()
        for j, spec in enumerate(extractor.specs):
            assert vector[j] == spec.compute(cleaned), spec.name

    def test_extract_many_rows_match_extract(self):
        from repro.features import FeatureExtractor

        rng = np.random.default_rng(11)
        signals = [rng.normal(0.0, 1.0, n) ** 2 for n in (60, 90, 140)]
        extractor = FeatureExtractor.full()
        X = extractor.extract_many(signals)
        assert X.shape == (3, extractor.n_features)
        for i, s in enumerate(signals):
            np.testing.assert_array_equal(X[i], extractor.extract(s))
