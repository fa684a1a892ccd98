"""Square Based Calculation (SBC) — Section IV-B1 of the paper.

A sliding window of size ``w`` scans the real-time RSS; the mean of the
current window is subtracted from the mean of the previous window and the
difference is squared::

    ΔRSS²[i] = ( mean(x[i-w+1 .. i]) - mean(x[i-2w+1 .. i-w]) )²

The differencing removes the static offset ``N_static`` exactly and
attenuates slow dynamic noise, while squaring relatively enhances the large
gesture-driven excursions ``S_ges`` over the small residual noise — and
makes the output sign-free, which is what the Otsu-style threshold expects.
The whole transform is O(n) via prefix sums.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["sbc_transform", "StreamingSbc", "StreamingMovingAverage",
           "prefilter", "BLOCK_CROSSOVER"]

#: Block length at which the streaming stages switch from replaying
#: their per-sample scalar order to their numpy block passes.  A numpy
#: pass pays a fixed cost per call that a short block cannot amortize:
#: on idle 3-channel streams ``feed_block`` costs the same either way at
#: about 64 frames, the replay wins below and the passes above (curve in
#: docs/API.md).  Serving batches (10 frames) replay; offline replay
#: (256 frames) vectorizes.
BLOCK_CROSSOVER = 64


def prefilter(signal: np.ndarray, window: int) -> np.ndarray:
    """Causal moving-average smoothing applied to raw RSS before SBC.

    The hardware pendant is the analog low-pass at the amplifier output;
    micro gestures occupy only a few hertz, so a short average costs no
    gesture bandwidth while suppressing sample-level converter noise.
    Multi-channel ``(T, C)`` inputs are filtered per channel.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    x = np.asarray(signal, dtype=np.float64)
    if window == 1 or len(x) == 0:
        return x.copy()
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    n = len(x)
    s0 = np.concatenate([np.zeros((1, x.shape[1])), np.cumsum(x, axis=0)])
    idx_hi = np.arange(1, n + 1)
    idx_lo = np.maximum(idx_hi - window, 0)
    out = (s0[idx_hi] - s0[idx_lo]) / (idx_hi - idx_lo)[:, None]
    return out[:, 0] if squeeze else out


class StreamingMovingAverage:
    """O(1)-per-sample causal moving average (the streaming prefilter).

    With ``channels=None`` one instance filters one channel: :meth:`push`
    takes and returns a float, :meth:`push_block` a 1-D array.  With
    ``channels=C`` it filters whole frames: :meth:`push` takes ``C``
    values and returns a ``C``-tuple, :meth:`push_block` maps an
    ``(n, C)`` matrix to an ``(n, C)`` matrix.  Each channel keeps its
    own window and running sum, updated in the single-channel order, so
    a frame filter is bit-identical to one filter per channel.
    """

    def __init__(self, window: int, channels: int | None = None) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if channels is not None and channels < 1:
            raise ValueError(f"channels must be >= 1, got {channels}")
        self.window = window
        self.channels = channels
        width = 1 if channels is None else channels
        self._buffers: list[deque[float]] = [
            deque(maxlen=window) for _ in range(width)]
        self._sums = [0.0] * width

    def push(self, value):
        """Ingest one sample (or one frame); returns the window mean(s)."""
        if self.channels is None:
            return self._replay(0, [float(value)])[0]
        if len(value) != self.channels:
            raise ValueError(
                f"frame has {len(value)} channels, filter has "
                f"{self.channels}")
        return tuple(self._replay(c, [float(v)])[0]
                     for c, v in enumerate(value))

    def push_block(self, values: np.ndarray) -> np.ndarray:
        """Ingest N samples (or N frames) at once; bit-identical to N
        :meth:`push` calls.

        Blocks shorter than :data:`BLOCK_CROSSOVER` replay the per-push
        recurrence in a loop.  Longer blocks run the same recurrence as
        one ``np.add.accumulate`` per channel: a running sum is a left
        fold — each push subtracts the evicted sample once the window is
        full, then adds the new one — so laying those operations out in
        push order and accumulating them performs the same additions in
        the same order, and every partial sum and mean carries the
        scalar bits, whatever the values.
        """
        x = np.asarray(values, dtype=np.float64)
        if self.channels is None:
            x = x.reshape(-1, 1)
        elif x.ndim != 2 or x.shape[1] != self.channels:
            raise ValueError(
                f"block of shape {x.shape} does not match a "
                f"{self.channels}-channel filter")
        if x.shape[0] < BLOCK_CROSSOVER:
            out = np.array([self._replay(c, column)
                            for c, column in enumerate(x.T.tolist())],
                           dtype=np.float64).T
        else:
            out = self._accumulate(x)
        return out[:, 0] if self.channels is None else out

    def _replay(self, c: int, column: list) -> list:
        """The running-mean recurrence of channel *c* over *column*
        (floats): what :meth:`push` runs, one sample at a time."""
        w = self.window
        buf = self._buffers[c]
        append = buf.append
        s = self._sums[c]
        out = []
        for value in column:
            if len(buf) == w:
                s -= buf[0]
            append(value)
            s += value
            out.append(s / len(buf))
        self._sums[c] = s
        return out

    def _accumulate(self, x: np.ndarray) -> np.ndarray:
        """The per-push recurrence over ``(n, width)`` as one fold."""
        w = self.window
        n, width = x.shape
        buffers = self._buffers
        held = len(buffers[0])
        grow = min(w - held, n)       # pushes before the window is full
        steps = np.empty((1 + grow + 2 * (n - grow), width))
        steps[0] = self._sums
        steps[1:1 + grow] = x[:grow]
        if grow < n:
            carried = np.array([list(b) for b in buffers],
                               dtype=np.float64).reshape(width, held).T
            evicted = np.concatenate((carried, x))[held + grow - w:
                                                   held + n - w]
            steps[1 + grow::2] = -evicted   # push order: evict, then add
            steps[2 + grow::2] = x[grow:]
        acc = np.add.accumulate(steps, axis=0)
        sums = np.concatenate((acc[1:1 + grow], acc[2 + grow::2]))
        counts = np.minimum(np.arange(held + 1, held + n + 1), w)
        for buf, column in zip(buffers, x[n - min(n, w):].T.tolist()):
            buf.extend(column)
        self._sums = acc[-1].tolist()
        return sums / counts[:, None]

    def channel_state(self) -> list[tuple[list[float], float]]:
        """Per channel ``(buffered samples oldest first, running sum)``."""
        return [(list(buf), s) for buf, s in zip(self._buffers, self._sums)]

    def load_channel_state(self,
                           state: list[tuple[list[float], float]]) -> None:
        """Restore :meth:`channel_state` output (one entry per channel)."""
        if len(state) != len(self._buffers):
            raise ValueError(
                f"{len(state)} channel states for {len(self._buffers)} "
                f"channels")
        if len({len(buffered) for buffered, _ in state}) > 1:
            raise ValueError("channel states hold unequal sample counts")
        for c, (buffered, s) in enumerate(state):
            self._buffers[c].clear()
            self._buffers[c].extend(float(v) for v in buffered)
            self._sums[c] = float(s)

    def reset(self) -> None:
        """Forget buffered samples."""
        for buf in self._buffers:
            buf.clear()
        self._sums = [0.0] * len(self._buffers)


def sbc_transform(signal: np.ndarray, window: int = 1) -> np.ndarray:
    """Offline SBC: ΔRSS² of *signal* (same length; warm-up samples are 0).

    Parameters
    ----------
    signal:
        Raw RSS readings ``(T,)`` or multi-channel ``(T, C)`` (each channel
        is transformed independently).
    window:
        ``w`` in samples; at 100 Hz the paper's 10 ms is one sample, making
        SBC the squared first difference.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    x = np.asarray(signal, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    n = len(x)
    out = np.zeros_like(x)
    if n >= 2 * window:
        # S0[k] = sum of x[0 .. k-1]; window sum ending at i is S0[i+1]-S0[i+1-w]
        s0 = np.concatenate([np.zeros((1, x.shape[1])), np.cumsum(x, axis=0)])
        w = window
        cur = s0[2 * w: n + 1] - s0[w: n - w + 1]
        prev = s0[w: n - w + 1] - s0[0: n - 2 * w + 1]
        delta = (cur - prev) / w
        out[2 * w - 1:] = delta * delta
    return out[:, 0] if squeeze else out


class StreamingSbc:
    """On-line SBC over one channel: push a sample, get ΔRSS² back.

    Keeps two running window sums; each :meth:`push` is O(1), matching the
    O(n) complexity the paper claims for the full stream.
    """

    def __init__(self, window: int = 1) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._buffer: deque[float] = deque(maxlen=2 * window)
        self._count = 0

    def push(self, value: float) -> float:
        """Ingest one RSS sample; returns ΔRSS² (0.0 during warm-up)."""
        return self._replay([float(value)])[0]

    def _replay(self, values: list) -> list:
        """ΔRSS² of each of *values* (floats), pushed one at a time."""
        w = self.window
        full = 2 * w
        buf = self._buffer
        out = []
        for value in values:
            buf.append(value)
            if len(buf) < full:
                out.append(0.0)
                continue
            # each window summed left to right from 0.0, as the block
            # pass accumulates (not CPython 3.12's compensated sum())
            prev = cur = 0.0
            for k in range(w):
                prev += buf[k]
                cur += buf[w + k]
            delta = (cur - prev) / w
            out.append(delta * delta)
        self._count += len(values)
        return out

    def push_block(self, values: np.ndarray) -> np.ndarray:
        """Ingest N samples at once; bit-identical to N :meth:`push` calls.

        Blocks shorter than :data:`BLOCK_CROSSOVER` run the per-push
        arithmetic in a loop.  Longer ones build the window sums by
        strided accumulation in the same left-to-right order as the
        per-push fold over the buffer, so every elementwise rounding step
        matches the streaming path.
        """
        x = np.asarray(values, dtype=np.float64).ravel()
        n = x.size
        w = self.window
        buf = self._buffer
        if n < BLOCK_CROSSOVER:
            return np.array(self._replay(x.tolist()), dtype=np.float64)
        carried = np.fromiter(buf, dtype=np.float64, count=len(buf))
        seq = np.concatenate([carried, x])
        out = np.zeros(n, dtype=np.float64)
        first_valid = max(0, 2 * w - len(carried) - 1)
        if first_valid < n:
            m = n - first_valid
            # Window start for output i: seq[L0+i+1-2w : ...] (buffer full).
            p0 = len(carried) + first_valid + 1 - 2 * w
            prev_sum = np.zeros(m, dtype=np.float64)
            cur_sum = np.zeros(m, dtype=np.float64)
            for k in range(w):
                prev_sum += seq[p0 + k: p0 + k + m]
                cur_sum += seq[p0 + w + k: p0 + w + k + m]
            delta = (cur_sum - prev_sum) / w
            out[first_valid:] = delta * delta
        buf.extend(x.tolist())
        self._count += n
        return out

    def reset(self) -> None:
        """Forget all buffered samples."""
        self._buffer.clear()
        self._count = 0

    @property
    def samples_seen(self) -> int:
        """Total samples pushed since construction or reset."""
        return self._count
