"""Unit tests for the 23 time-domain Table-I feature families."""

import numpy as np
import pytest

from repro.features import timedomain as td


@pytest.fixture()
def sine():
    return np.sin(2 * np.pi * 2.0 * np.arange(200) / 100.0)


@pytest.fixture()
def noise():
    return np.random.default_rng(0).normal(0, 1, 200)


class TestDispersion:
    def test_std_and_variance_consistent(self, noise):
        np.testing.assert_allclose(td.standard_deviation(noise) ** 2,
                                   td.variance(noise), rtol=1e-9)

    def test_constant_signal(self):
        x = np.full(50, 3.0)
        assert td.standard_deviation(x) == 0.0
        assert td.variance(x) == 0.0

    def test_empty(self):
        assert td.standard_deviation(np.array([])) == 0.0

    def test_count_above_below_sum_to_one_for_continuous(self, noise):
        total = td.count_above_mean(noise) + td.count_below_mean(noise)
        assert total == pytest.approx(1.0, abs=0.01)

    def test_counts_are_fractions(self, sine):
        assert 0.0 <= td.count_above_mean(sine) <= 1.0


class TestLocations:
    def test_first_location_of_maximum(self):
        x = np.array([0.0, 5.0, 1.0, 5.0])
        assert td.first_location_of_maximum(x) == 0.25

    def test_last_location_of_maximum(self):
        x = np.array([0.0, 5.0, 1.0, 5.0])
        assert td.last_location_of_maximum(x) == 0.75

    def test_first_location_of_minimum(self):
        x = np.array([3.0, -1.0, 2.0])
        assert td.first_location_of_minimum(x) == pytest.approx(1 / 3)

    def test_quantile(self):
        x = np.arange(101, dtype=float)
        assert td.quantile(x, 0.5) == 50.0
        with pytest.raises(ValueError):
            td.quantile(x, 1.5)

    def test_length(self):
        assert td.series_length(np.zeros(17)) == 17.0


class TestCorrelationStructure:
    def test_autocorrelation_of_periodic(self, sine):
        # period is 50 samples at 2 Hz / 100 Hz
        assert td.autocorrelation(sine, 50) == pytest.approx(1.0, abs=0.02)
        assert td.autocorrelation(sine, 25) == pytest.approx(-1.0, abs=0.02)

    def test_autocorrelation_constant_is_zero(self):
        assert td.autocorrelation(np.full(20, 2.0), 1) == 0.0

    def test_autocorrelation_short_series(self):
        assert td.autocorrelation(np.array([1.0, 2.0]), 5) == 0.0

    def test_partial_autocorrelation_ar1(self):
        rng = np.random.default_rng(1)
        x = np.zeros(3000)
        for i in range(1, 3000):
            x[i] = 0.7 * x[i - 1] + rng.normal()
        assert td.partial_autocorrelation(x, 1) == pytest.approx(0.7, abs=0.05)
        assert abs(td.partial_autocorrelation(x, 2)) < 0.1

    def test_ar_coefficient_recovers_process(self):
        rng = np.random.default_rng(2)
        x = np.zeros(4000)
        for i in range(1, 4000):
            x[i] = 0.6 * x[i - 1] + rng.normal()
        assert td.ar_coefficient(x, k=1, order=4) == pytest.approx(0.6, abs=0.07)

    def test_ar_validation(self):
        with pytest.raises(ValueError):
            td.ar_coefficient(np.zeros(50), k=9, order=4)


def _reference_entropies(x: np.ndarray, m: int, r_factor: float,
                         strict: bool = False):
    """``(ApEn, SampEn)`` from explicit Chebyshev distances between all
    template pairs; *strict* matches on ``< r`` instead of ``<= r``."""
    n = x.size
    r = r_factor * np.std(x)

    def counts(series, length, self_match):
        t = np.lib.stride_tricks.sliding_window_view(series, length)
        d = np.abs(t[:, None, :] - t[None, :, :]).max(axis=2)
        c = ((d < r) if strict else (d <= r)).sum(axis=1).astype(np.float64)
        return c if self_match else np.maximum(c - 1.0, 0.0)

    def phi(length):
        frac = counts(x, length, True) / (n - length + 1)
        return float(np.mean(np.log(np.maximum(frac, 1e-300))))

    apen = abs(phi(m) - phi(m + 1))
    b = counts(x[:n - 1], m, False).sum()
    a = counts(x, m + 1, False).sum()
    if b <= 0.0:
        return apen, 0.0
    if a <= 0.0:
        return apen, float(np.log(b) + 1e-12)
    return apen, float(-np.log(a / b))


class TestEntropyComplexity:
    def test_sample_entropy_orders_regular_vs_random(self, sine, noise):
        assert td.sample_entropy(noise) > td.sample_entropy(sine)

    def test_approximate_entropy_orders_regular_vs_random(self, sine, noise):
        assert td.approximate_entropy(noise) > td.approximate_entropy(sine)

    def test_entropy_of_constant_is_zero(self):
        assert td.sample_entropy(np.full(100, 2.0)) == 0.0
        assert td.approximate_entropy(np.full(100, 2.0)) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_entropies_match_template_distance_reference(self, noise, m):
        # steps of 0.5 with r = 0.5 exactly: many template pairs sit at
        # distance exactly r, so the tolerance test must be <=, as in the
        # reference
        steps = np.random.default_rng(0).integers(0, 4, 60) * 0.5
        r_factor = 0.5 / np.std(steps)
        assert r_factor * np.std(steps) == 0.5
        cases = [(steps, r_factor), (noise[:90], 0.2),
                 (np.round(noise[:70], 1), 0.2)]
        for x, rf in cases:
            apen, sampen = _reference_entropies(x, m, rf)
            assert td.approximate_entropy(x, m, rf) == apen
            assert td.sample_entropy(x, m, rf) == sampen
        assert (_reference_entropies(steps, m, r_factor, strict=True)
                != _reference_entropies(steps, m, r_factor))

    def test_cid_higher_for_rough_signal(self, sine, noise):
        assert (td.complexity_invariant_distance(noise)
                > td.complexity_invariant_distance(sine))

    def test_cid_unnormalized_scales(self, sine):
        big = td.complexity_invariant_distance(10 * sine, normalize=False)
        small = td.complexity_invariant_distance(sine, normalize=False)
        np.testing.assert_allclose(big / small, 10.0, rtol=1e-9)

    def test_c3_zero_for_gaussian(self, noise):
        assert abs(td.c3(noise, 1)) < 0.2

    def test_time_reversal_asymmetry_zero_for_symmetric(self, sine):
        assert abs(td.time_reversal_asymmetry(sine, 1)) < 1e-3

    def test_time_reversal_asymmetry_nonzero_for_sawtooth(self):
        saw = np.tile(np.linspace(0, 1, 10), 20)
        assert abs(td.time_reversal_asymmetry(saw, 1)) > 1e-3


class TestRunsAndPeaks:
    def test_kurtosis_of_gaussian_near_zero(self, noise):
        assert abs(td.kurtosis(noise)) < 0.6

    def test_kurtosis_of_spiky_positive(self):
        x = np.zeros(100)
        x[50] = 50.0
        assert td.kurtosis(x) > 10.0

    def test_longest_strikes(self):
        x = np.array([0, 0, 5, 5, 5, 0, 5, 0], dtype=float)
        assert td.longest_strike_above_mean(x) == pytest.approx(3 / 8)
        assert td.longest_strike_below_mean(x) == pytest.approx(2 / 8)

    def test_number_of_peaks_counts_humps(self):
        t = np.arange(300) / 100.0
        # phase offset avoids peaks landing exactly between two samples
        x = np.sin(2 * np.pi * 2.0 * t + 0.37)  # 2 Hz for 3 s -> ~6 peaks
        assert td.number_of_peaks(x, support=3) == pytest.approx(6, abs=1)

    def test_number_of_peaks_flat(self):
        assert td.number_of_peaks(np.zeros(50), support=3) == 0.0

    def test_peaks_validation(self):
        with pytest.raises(ValueError):
            td.number_of_peaks(np.zeros(10), support=0)


class TestEnergyChange:
    def test_absolute_energy_mean_power(self):
        x = np.array([1.0, -2.0, 2.0])
        np.testing.assert_allclose(td.absolute_energy(x), 3.0)

    def test_mean_absolute_change(self):
        x = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(td.mean_absolute_change(x), 1.5)

    def test_energy_ratio_chunks_sum_to_one(self, noise):
        total = sum(td.energy_ratio_by_chunks(noise, 10, c) for c in range(10))
        np.testing.assert_allclose(total, 1.0, rtol=1e-9)

    def test_energy_ratio_validation(self):
        with pytest.raises(ValueError):
            td.energy_ratio_by_chunks(np.ones(10), 10, 10)


class TestTrendStationarity:
    def test_linear_trend_slope(self):
        x = 3.0 * np.arange(50) + 1.0
        np.testing.assert_allclose(td.linear_trend_slope(x), 3.0, rtol=1e-9)
        np.testing.assert_allclose(td.linear_trend_r2(x), 1.0, rtol=1e-9)

    def test_trend_r2_of_noise_small(self, noise):
        assert td.linear_trend_r2(noise) < 0.2

    def test_adf_stationary_strongly_negative(self, noise):
        assert td.augmented_dickey_fuller(noise) < -5.0

    def test_adf_random_walk_near_zero(self):
        rng = np.random.default_rng(3)
        walk = np.cumsum(rng.normal(0, 1, 500))
        assert td.augmented_dickey_fuller(walk) > -3.5

    def test_adf_short_series(self):
        assert td.augmented_dickey_fuller(np.ones(4)) == 0.0


class TestRobustness:
    @pytest.mark.parametrize("func", [
        td.standard_deviation, td.variance, td.count_above_mean,
        td.count_below_mean, td.last_location_of_maximum,
        td.first_location_of_maximum, td.first_location_of_minimum,
        td.sample_entropy, td.longest_strike_above_mean,
        td.longest_strike_below_mean, td.kurtosis, td.autocorrelation,
        td.number_of_peaks, td.quantile, td.complexity_invariant_distance,
        td.mean_absolute_change, td.time_reversal_asymmetry,
        td.absolute_energy, td.energy_ratio_by_chunks,
        td.approximate_entropy, td.series_length, td.linear_trend_slope,
        td.linear_trend_r2, td.augmented_dickey_fuller, td.c3,
        td.partial_autocorrelation, td.ar_coefficient,
    ])
    def test_total_on_degenerate_inputs(self, func):
        for x in (np.array([]), np.zeros(1), np.zeros(3), np.full(5, 7.0)):
            value = func(x)
            assert np.isfinite(value)
