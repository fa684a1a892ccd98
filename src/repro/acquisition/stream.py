"""Frame-by-frame streaming view of a recording.

The real-time pipeline (Section IV of the paper) consumes samples as they
arrive from the MCU.  :func:`stream_frames` replays a :class:`Recording`
one :class:`RssFrame` at a time so the on-line algorithms are exercised on
exactly the interface they would see on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.acquisition.sampler import Recording

__all__ = ["RssFrame", "FrameBlock", "stream_frames", "stream_blocks"]


@dataclass(frozen=True)
class RssFrame:
    """One ADC conversion cycle across all photodiode channels.

    Parameters
    ----------
    index:
        Sample index since stream start.
    time_s:
        Timestamp.
    values:
        ADC counts per channel, in the recording's channel order.
    """

    index: int
    time_s: float
    values: tuple[float, ...]

    def value(self, channel: int) -> float:
        """The count for *channel* (bounds-checked)."""
        if not 0 <= channel < len(self.values):
            raise IndexError(
                f"channel {channel} out of range for {len(self.values)} channels")
        return self.values[channel]

    @property
    def combined(self) -> float:
        """Channel-summed RSS."""
        return float(sum(self.values))


@dataclass(frozen=True)
class FrameBlock:
    """A contiguous batch of frames in stacked (struct-of-arrays) form.

    The block-mode consume path (:meth:`AirFinger.feed_block
    <repro.core.pipeline.AirFinger.feed_block>`) wants N frames as three
    aligned arrays rather than N :class:`RssFrame` objects — replaying a
    recording offline can then skip per-frame tuple construction entirely.
    ``indices`` keeps the stream-relative numbering of
    :func:`stream_frames`, including any gaps or reordering the source
    carries.
    """

    indices: np.ndarray   # (N,) int64, stream-relative
    times_s: np.ndarray   # (N,) float64
    values: np.ndarray    # (N, C) float64

    def __post_init__(self) -> None:
        if not (self.indices.ndim == 1 and self.times_s.ndim == 1
                and self.values.ndim == 2):
            raise ValueError("indices/times_s must be 1-D, values 2-D")
        if not (len(self.indices) == len(self.times_s) == len(self.values)):
            raise ValueError(
                f"mismatched block lengths: {len(self.indices)} indices, "
                f"{len(self.times_s)} times, {len(self.values)} value rows")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, rows: slice) -> "FrameBlock":
        """The block of rows *rows* (a slice), as views."""
        return FrameBlock(indices=self.indices[rows],
                          times_s=self.times_s[rows],
                          values=self.values[rows])

    def frame(self, i: int) -> RssFrame:
        """Materialize row *i* as a scalar :class:`RssFrame`."""
        return RssFrame(index=int(self.indices[i]),
                        time_s=float(self.times_s[i]),
                        values=tuple(self.values[i].tolist()))

    def frames(self) -> Iterator[RssFrame]:
        """Materialize every row as a scalar :class:`RssFrame`."""
        for i in range(len(self.indices)):
            yield self.frame(i)

    @classmethod
    def from_frames(cls, frames: Iterable[RssFrame]) -> "FrameBlock":
        """Stack an :class:`RssFrame` sequence; ``ValueError`` unless the
        frames share one channel count."""
        frames = list(frames)
        widths = {len(f.values) for f in frames}
        if len(widths) > 1:
            raise ValueError("frames disagree on channel count")
        values = np.array([f.values for f in frames], dtype=np.float64)
        return cls(indices=np.fromiter((f.index for f in frames),
                                       dtype=np.int64, count=len(frames)),
                   times_s=np.fromiter((f.time_s for f in frames),
                                       dtype=np.float64, count=len(frames)),
                   values=values.reshape(len(frames), *widths or (0,)))

    @classmethod
    def concat(cls, blocks: list["FrameBlock"]) -> "FrameBlock":
        """One block holding the rows of *blocks* in order."""
        return cls(*(np.concatenate(column) for column in zip(
            *((b.indices, b.times_s, b.values) for b in blocks))))


def stream_blocks(recording: Recording, block_size: int,
                  start: int = 0,
                  stop: int | None = None) -> Iterator[FrameBlock]:
    """Replay a recording as :class:`FrameBlock` batches of *block_size*.

    The last block is short when the range does not divide evenly.  Frame
    numbering matches :func:`stream_frames` over the same range (same
    values, no per-frame objects).
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    stop = recording.n_samples if stop is None else stop
    if not 0 <= start <= stop <= recording.n_samples:
        raise ValueError(
            f"invalid frame range [{start}, {stop}) for "
            f"{recording.n_samples} samples")
    whole = FrameBlock(
        indices=np.arange(stop - start, dtype=np.int64),
        times_s=np.asarray(recording.times_s[start:stop], dtype=np.float64),
        values=np.asarray(recording.rss[start:stop], dtype=np.float64))
    for lo in range(0, stop - start, block_size):
        yield whole[lo:lo + block_size]


def stream_frames(recording: Recording,
                  start: int = 0,
                  stop: int | None = None) -> Iterator[RssFrame]:
    """Yield the recording's samples as frames, in time order.

    Frame indices are **stream-relative**: a windowed replay
    (``start > 0``) still begins at index 0, exactly as live hardware
    would number its frames.  Consumers that need the recording row can
    add ``start`` back; consumers of segment positions (the pipeline's
    deadline and segment bookkeeping) rely on this zero base.
    """
    stop = recording.n_samples if stop is None else stop
    if not 0 <= start <= stop <= recording.n_samples:
        raise ValueError(
            f"invalid frame range [{start}, {stop}) for "
            f"{recording.n_samples} samples")
    rss = recording.rss
    times = recording.times_s
    for i in range(start, stop):
        yield RssFrame(index=i - start, time_s=float(times[i]),
                       values=tuple(float(v) for v in rss[i]))
