"""Unit tests for SBC and the streaming prefilter."""

import numpy as np
import pytest

from repro.core.sbc import (
    BLOCK_CROSSOVER,
    StreamingMovingAverage,
    StreamingSbc,
    prefilter,
    sbc_transform,
)


class TestSbcTransform:
    def test_window_one_is_squared_diff(self):
        x = np.array([1.0, 2.0, 4.0, 7.0, 7.0, 3.0])
        expected = np.array([0.0, 1.0, 4.0, 9.0, 0.0, 16.0])
        np.testing.assert_allclose(sbc_transform(x, 1), expected)

    def test_removes_static_offset(self):
        x = np.sin(np.arange(100) / 5.0)
        np.testing.assert_allclose(sbc_transform(x + 1000.0, 2),
                                   sbc_transform(x, 2), atol=1e-9)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(0)
        out = sbc_transform(rng.normal(0, 1, 200), 3)
        assert np.all(out >= 0)

    def test_warmup_zeros(self):
        x = np.arange(20, dtype=float)
        out = sbc_transform(x, 4)
        np.testing.assert_array_equal(out[: 2 * 4 - 1], 0.0)

    def test_constant_signal_zero(self):
        np.testing.assert_array_equal(sbc_transform(np.full(30, 5.0), 3), 0.0)

    def test_multichannel_independent(self):
        x = np.random.default_rng(1).normal(0, 1, (50, 3))
        out = sbc_transform(x, 2)
        for c in range(3):
            np.testing.assert_allclose(out[:, c], sbc_transform(x[:, c], 2))

    def test_short_signal(self):
        out = sbc_transform(np.array([1.0, 2.0]), 4)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            sbc_transform(np.zeros(5), 0)

    def test_amplifies_gesture_over_slow_drift(self):
        t = np.arange(400) / 100.0
        drift = 5.0 * np.sin(2 * np.pi * 0.05 * t)       # slow ambient
        gesture = np.zeros_like(t)
        gesture[200:250] = 40.0 * np.sin(2 * np.pi * 3.0 * t[200:250])
        out = sbc_transform(drift + gesture, 1)
        assert out[200:250].max() > 100 * out[:150].max()


class TestStreamingSbc:
    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_matches_offline(self, window):
        x = np.random.default_rng(2).normal(0, 1, 80)
        stream = StreamingSbc(window)
        np.testing.assert_allclose(stream.push_block(x),
                                   sbc_transform(x, window))

    def test_reset(self):
        s = StreamingSbc(2)
        s.push_block(np.arange(10, dtype=float))
        s.reset()
        assert s.samples_seen == 0
        assert s.push(1.0) == 0.0  # warm-up again

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingSbc(0)

    @pytest.mark.parametrize("window", [2, 3])
    def test_replay_matches_block_pass_under_compensated_sum(
            self, window, compensated_sum):
        """Short blocks replay the window sums one push at a time, long
        ones accumulate them; both fold left to right from 0.0, so
        CPython 3.12's compensated ``sum()`` must not split them."""
        rng = np.random.default_rng(9)
        # magnitudes far apart, so compensation changes rounded sums
        x = rng.choice([1e16, -1e16, 1.0, 3.0, 0.1, 0.7], size=400)
        x *= rng.uniform(0.5, 2.0, size=400)
        assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
        block = StreamingSbc(window).push_block(x)
        assert x.size >= BLOCK_CROSSOVER
        replay = StreamingSbc(window)
        pushed = [replay.push(v) for v in x.tolist()]
        assert np.array_equal(np.array(pushed).view(np.uint64),
                              block.view(np.uint64))


class TestPrefilter:
    def test_window_one_identity(self):
        x = np.random.default_rng(0).random(20)
        np.testing.assert_array_equal(prefilter(x, 1), x)

    def test_causal_start(self):
        x = np.array([4.0, 0.0, 0.0, 0.0])
        out = prefilter(x, 2)
        np.testing.assert_allclose(out, [4.0, 2.0, 0.0, 0.0])

    def test_reduces_noise_variance(self):
        x = np.random.default_rng(1).normal(0, 1, 5000)
        assert prefilter(x, 5).std() < 0.6 * x.std()

    def test_multichannel(self):
        x = np.random.default_rng(2).random((30, 2))
        out = prefilter(x, 3)
        np.testing.assert_allclose(out[:, 0], prefilter(x[:, 0], 3))

    def test_streaming_matches_offline(self):
        x = np.random.default_rng(3).random(50)
        sma = StreamingMovingAverage(4)
        streamed = np.array([sma.push(v) for v in x])
        np.testing.assert_allclose(streamed, prefilter(x, 4))

    def test_streaming_reset(self):
        sma = StreamingMovingAverage(3)
        sma.push(9.0)
        sma.reset()
        assert sma.push(3.0) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            prefilter(np.zeros(5), 0)
        with pytest.raises(ValueError):
            StreamingMovingAverage(0)


class TestStreamingMovingAverageFrames:
    """One frame filter over ``(m, 3)`` blocks == three scalar filters."""

    @staticmethod
    def _frames(n: int) -> np.ndarray:
        rng = np.random.default_rng(4)
        x = np.round(rng.uniform(400, 700, size=(n, 3)))   # ADC codes
        x[40:60, 1] = 551.5                                # held median
        # gap-interpolated rows: k/(g+1) steps land off the 2^-k grid
        a, b = x[99].copy(), x[103].copy()
        for k in range(3):
            x[100 + k] = a + (k + 1) / 4.0 * (b - a)
        x[180:190] = x[179] + np.arange(1, 11)[:, None] / 3.0
        # full-mantissa values, where summation order shows in the bits
        x[200:280] = rng.normal(550.0, 40.0, size=(80, 3)) * np.pi / 3.0
        return x

    @pytest.mark.parametrize(
        "split", [1, 10, BLOCK_CROSSOVER - 1, BLOCK_CROSSOVER, 256])
    def test_push_block_matches_per_channel_push(self, split):
        x = self._frames(300)
        scalar = [StreamingMovingAverage(5) for _ in range(3)]
        ref = [[f.push(v) for f, v in zip(scalar, row)] for row in x.tolist()]
        frame = StreamingMovingAverage(5, channels=3)
        got = []
        for i in range(0, len(x), split):
            out = frame.push_block(x[i:i + split])
            assert out.shape == (len(x[i:i + split]), 3)
            got.extend(out.tolist())
        assert [[repr(v) for v in row] for row in got] == \
            [[repr(v) for v in row] for row in ref]
        assert frame.channel_state() == [
            (list(f._buffers[0]), f._sums[0]) for f in scalar]

    def test_push_matches_push_block(self):
        x = self._frames(300)
        one = StreamingMovingAverage(5, channels=3)
        block = StreamingMovingAverage(5, channels=3)
        ref = [one.push(tuple(row)) for row in x.tolist()]
        got = block.push_block(x).tolist()
        assert [[repr(v) for v in r] for r in ref] == \
            [[repr(v) for v in r] for r in got]

    def test_channel_count_is_checked(self):
        frame = StreamingMovingAverage(5, channels=3)
        with pytest.raises(ValueError):
            frame.push((1.0, 2.0))
        with pytest.raises(ValueError):
            frame.push_block(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            StreamingMovingAverage(5, channels=0)

    def test_state_round_trip(self):
        x = self._frames(300)
        src = StreamingMovingAverage(5, channels=3)
        src.push_block(x[:103])
        dst = StreamingMovingAverage(5, channels=3)
        dst.load_channel_state(src.channel_state())
        assert [repr(v) for v in dst.push_block(x[103:]).ravel()] == \
            [repr(v) for v in src.push_block(x[103:]).ravel()]
