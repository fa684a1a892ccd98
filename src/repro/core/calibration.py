"""Sensor self-calibration: baselines, channel gains and health checks.

A shipped sensor must calibrate itself at power-on — the paper's prototype
relies on the dynamic threshold to absorb environment changes, but a real
integration also wants:

* a **baseline estimate** per channel (the static floor: crosstalk, hand
  rest, standing ambient) so excursions can be reported in physical-ish
  units;
* **channel gain trim**: part-to-part photodiode sensitivity spreads by
  tens of percent; matching the channels keeps ZEBRA's differential
  statistics unbiased;
* a **health check** that flags dead, saturated or noise-swamped channels
  before the pipeline trusts them.

Calibration runs on an idle capture (no gestures), which the wearable can
collect whenever the segmenter has been quiet for a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acquisition.adc import Adc

__all__ = ["ChannelHealth", "CalibrationResult", "SensorCalibrator",
           "ChannelGuard"]


@dataclass(frozen=True)
class ChannelHealth:
    """Power-on health verdict for one photodiode channel.

    ``saturation_fraction`` is the historical both-rails aggregate;
    ``low_rail_fraction`` / ``high_rail_fraction`` split it so a dark
    (covered) sensor sitting near code 0 is distinguishable from an
    optically blinded one pinned at full scale.
    """

    name: str
    baseline: float
    noise_rms: float
    saturation_fraction: float
    status: str  # "ok" | "dead" | "saturated" | "noisy"
    low_rail_fraction: float = 0.0
    high_rail_fraction: float = 0.0

    @property
    def usable(self) -> bool:
        """True when the channel can feed the pipeline."""
        return self.status == "ok"


@dataclass
class CalibrationResult:
    """Output of :meth:`SensorCalibrator.calibrate`."""

    baselines: np.ndarray
    gains: np.ndarray
    health: list[ChannelHealth]

    @property
    def all_usable(self) -> bool:
        """True when every channel passed the health check."""
        return all(h.usable for h in self.health)

    def apply(self, rss: np.ndarray) -> np.ndarray:
        """Baseline-subtract and gain-trim a raw RSS matrix."""
        rss = np.atleast_2d(np.asarray(rss, dtype=np.float64))
        if rss.shape[1] != self.baselines.size:
            raise ValueError(
                f"rss has {rss.shape[1]} channels, calibration has "
                f"{self.baselines.size}")
        return (rss - self.baselines) * self.gains


@dataclass
class SensorCalibrator:
    """Derives a :class:`CalibrationResult` from an idle capture.

    Parameters
    ----------
    adc:
        Converter model (for the saturation codes).
    dead_noise_rms:
        Channels whose noise RMS falls below this are considered
        disconnected (a live photodiode always shows shot noise).
    max_noise_rms:
        Channels noisier than this are flagged unusable.
    max_saturation:
        Maximum tolerable fraction of pinned samples.
    reference:
        Gain-trim target: ``"median"`` scales every channel's observed
        noise RMS to the median channel's (photocurrent noise tracks
        responsivity, so it doubles as a relative-sensitivity probe).
    """

    adc: Adc = field(default_factory=Adc)
    dead_noise_rms: float = 1e-3
    max_noise_rms: float = 40.0
    max_saturation: float = 0.05
    reference: str = "median"

    def __post_init__(self) -> None:
        if self.dead_noise_rms <= 0:
            raise ValueError("dead_noise_rms must be positive")
        if self.max_noise_rms <= self.dead_noise_rms:
            raise ValueError("max_noise_rms must exceed dead_noise_rms")
        if not 0.0 <= self.max_saturation <= 1.0:
            raise ValueError("max_saturation must be within [0, 1]")
        if self.reference != "median":
            raise ValueError("only the 'median' reference is implemented")

    def calibrate(self, idle_rss: np.ndarray,
                  channel_names: tuple[str, ...] | None = None
                  ) -> CalibrationResult:
        """Calibrate from an idle multi-channel capture ``(T, C)``."""
        rss = np.atleast_2d(np.asarray(idle_rss, dtype=np.float64))
        if rss.shape[0] < 16:
            raise ValueError("idle capture too short to calibrate (need >=16)")
        n_channels = rss.shape[1]
        names = channel_names or tuple(f"P{i + 1}" for i in range(n_channels))
        if len(names) != n_channels:
            raise ValueError(
                f"{len(names)} names for {n_channels} channels")

        baselines = np.median(rss, axis=0)
        detrended = rss - baselines
        noise = detrended.std(axis=0)
        low_rail = np.array([
            self.adc.low_rail_fraction(rss[:, c]) for c in range(n_channels)])
        high_rail_frac = np.array([
            self.adc.high_rail_fraction(rss[:, c]) for c in range(n_channels)])

        health: list[ChannelHealth] = []
        high_rail = 0.5 * self.adc.full_scale
        for c, name in enumerate(names):
            flat = (noise[c] < self.dead_noise_rms
                    and np.ptp(rss[:, c]) == 0.0)
            # a flat channel sits on one of the rails: the bottom rail is a
            # broken wire, the top rail is an optically blinded photodiode
            if flat and baselines[c] < high_rail:
                status = "dead"
            elif high_rail_frac[c] > self.max_saturation:
                # only the top rail means optical overload; bottom-rail
                # codes with live noise are a covered sensor in legitimate
                # darkness, not a saturated amplifier
                status = "saturated"
            elif noise[c] > self.max_noise_rms:
                status = "noisy"
            else:
                status = "ok"
            health.append(ChannelHealth(
                name=name, baseline=float(baselines[c]),
                noise_rms=float(noise[c]),
                saturation_fraction=float(low_rail[c] + high_rail_frac[c]),
                status=status,
                low_rail_fraction=float(low_rail[c]),
                high_rail_fraction=float(high_rail_frac[c])))

        usable = np.array([h.usable for h in health])
        gains = np.ones(n_channels)
        if usable.any():
            reference_rms = float(np.median(noise[usable]))
            for c in range(n_channels):
                if usable[c] and noise[c] > 1e-12:
                    gains[c] = reference_rms / noise[c]
        return CalibrationResult(baselines=baselines, gains=gains,
                                 health=health)


class ChannelGuard:
    """Streaming counterpart of the power-on health check.

    :class:`SensorCalibrator` runs once on an idle capture; the guard runs
    continuously inside :class:`~repro.core.pipeline.AirFinger`, watching
    each channel's raw counts over a rolling window and applying the same
    two fault signatures on-line:

    * **flat** — the signal repeats itself over nearly the whole window
      (fraction of zero sample-to-sample differences above
      ``max_flat_fraction``).  A live photodiode always shows converter
      dither; a near-perfectly repeated code is a broken wire, a dead
      die, or a stuck converter slot.  Judging *dominance* rather than
      requiring the entire window flat lets the guard catch a fault whose
      edges still carry a few live samples.
    * **saturated** — the top code dominates the window (optical
      overload; the bottom rail is deliberately *not* a fault here, since
      a covered sensor in darkness legitimately sits near code 0 with
      noise).

    Masking is immediate; recovery is hysteretic: a masked channel must
    produce ``recovery_checks`` consecutive healthy verdicts before it is
    trusted again, so an intermittent (flapping) channel stays excluded.

    Parameters
    ----------
    n_channels:
        Photodiode count.
    adc:
        Converter model supplying the rail codes.
    window:
        Rolling window length in samples.
    check_every:
        Verdict cadence in samples.
    max_high_rail:
        Window fraction at the top code above which the channel is
        declared saturated (an ambient step pins essentially the whole
        window, so this sits far above the calibrator's idle tolerance).
    max_flat_fraction:
        Fraction of zero successive differences above which the channel
        is declared flat.
    recovery_checks:
        Consecutive healthy verdicts required to unmask.
    """

    def __init__(self, n_channels: int, adc: Adc | None = None,
                 window: int = 100, check_every: int = 25,
                 max_high_rail: float = 0.9,
                 max_flat_fraction: float = 0.9,
                 recovery_checks: int = 3) -> None:
        if n_channels < 1:
            raise ValueError("n_channels must be >= 1")
        if window < 8:
            raise ValueError("window must be >= 8")
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if not 0.0 < max_high_rail <= 1.0:
            raise ValueError("max_high_rail must be within (0, 1]")
        if not 0.0 < max_flat_fraction <= 1.0:
            raise ValueError("max_flat_fraction must be within (0, 1]")
        if recovery_checks < 1:
            raise ValueError("recovery_checks must be >= 1")
        self.n_channels = n_channels
        self.adc = adc or Adc()
        self.window = window
        self.check_every = check_every
        self.max_high_rail = max_high_rail
        self.max_flat_fraction = max_flat_fraction
        self.recovery_checks = recovery_checks
        # the raw window is one (window, n_channels) ring; once full, row
        # `_ring_pos` is both the oldest sample and the next to overwrite
        self._ring = np.zeros((window, n_channels), dtype=np.float64)
        self._ring_pos = 0
        self._ring_len = 0
        self._masked = [False] * n_channels
        self._reasons = [""] * n_channels
        self._healthy_streak = [0] * n_channels
        self._hold = [0.0] * n_channels
        # block mode's newest healthy window per channel whose median (the
        # new hold level) nobody has asked for yet: holds are only read at
        # a masking transition, so the median is taken then, not per check
        self._hold_window: list[np.ndarray | None] = [None] * n_channels
        self._since_check = 0

    @property
    def mask(self) -> tuple[bool, ...]:
        """Per-channel masked state (True = excluded from fusion)."""
        return tuple(self._masked)

    @property
    def any_masked(self) -> bool:
        """True while at least one channel is excluded."""
        return any(self._masked)

    def hold_value(self, channel: int) -> float:
        """The last healthy level for *channel* (fusion substitute)."""
        window = self._hold_window[channel]
        if window is not None:
            self._hold[channel] = float(np.median(window))
            self._hold_window[channel] = None
        return self._hold[channel]

    def reason(self, channel: int) -> str:
        """Why *channel* is masked (empty string when healthy)."""
        return self._reasons[channel]

    def window_rows(self) -> np.ndarray:
        """The buffered raw samples, oldest first: ``(len, n_channels)``."""
        return np.concatenate(self._chronological())

    def _chronological(self) -> tuple[np.ndarray, ...]:
        """Views of the ring's rows, oldest first, to concatenate."""
        if self._ring_len < self.window:
            return (self._ring[:self._ring_len],)
        pos = self._ring_pos
        return self._ring[pos:], self._ring[:pos]

    def load_window(self, rows) -> None:
        """Replace the buffered samples with *rows* (oldest first)."""
        rows = np.asarray(rows, dtype=np.float64).reshape(
            -1, self.n_channels)[-self.window:]
        self._ring[:len(rows)] = rows
        self._ring_len = len(rows)
        self._ring_pos = len(rows) % self.window

    def _write(self, x: np.ndarray) -> None:
        """Append the rows of *x* to the ring."""
        w = self.window
        n = len(x)
        if n >= w:
            self._ring[:] = x[n - w:]
            self._ring_pos = 0
            self._ring_len = w
            return
        pos = self._ring_pos
        head = min(n, w - pos)
        self._ring[pos:pos + head] = x[:head]
        if head < n:
            self._ring[:n - head] = x[head:]
        self._ring_pos = (pos + n) % w
        self._ring_len = min(self._ring_len + n, w)

    def _verdict(self, values: np.ndarray) -> str:
        # saturation first: a hard pin at the top code is also flat, but
        # the rail is the more specific diagnosis
        if np.mean(values >= self.adc.full_scale) > self.max_high_rail:
            return "saturated"
        if np.mean(np.diff(values) == 0.0) > self.max_flat_fraction:
            return "flat"
        return ""

    def _judge(self, c: int, fault: str) -> tuple[bool, str] | None:
        """Apply one check's verdict (``fault``, empty when healthy) to
        channel *c*; returns the mask transition it causes, if any.

        A healthy verdict on an unmasked channel makes the checked window
        the channel's hold source; the caller records it.
        """
        if fault:
            self._healthy_streak[c] = 0
            if not self._masked[c]:
                self._masked[c] = True
                self._reasons[c] = fault
                return True, fault
        elif self._masked[c]:
            self._healthy_streak[c] += 1
            if self._healthy_streak[c] >= self.recovery_checks:
                self._masked[c] = False
                self._reasons[c] = ""
                self._healthy_streak[c] = 0
                return False, "recovered"
        return None

    def _block_verdicts(self, history: np.ndarray, starts: np.ndarray
                  ) -> tuple[list[list[bool]], list[list[bool]]]:
        """Saturated and flat verdicts, per check and channel, for the
        windows ``history[start:start + window]``.

        ``np.mean`` over a bool window is an integer count over the window
        length — integer counts never round, so a difference of prefix
        counts carries the same bits as the per-window mean while doing
        O(T) work instead of O(R * w).  Two exact shortcuts skip the
        counting on healthy data: nothing in *history* reaches the top
        code, or *history* holds too few repeated samples in total for
        any one window to be flat.
        """
        w = self.window
        quiet = [[False] * self.n_channels] * len(starts)
        if history.max() < self.adc.full_scale:
            saturated = quiet
        else:
            cum = np.zeros((history.shape[0] + 1, self.n_channels),
                           dtype=np.int64)
            np.cumsum(history >= self.adc.full_scale, axis=0, out=cum[1:])
            saturated = ((cum[starts + w] - cum[starts]) / w
                         > self.max_high_rail).tolist()
        repeated = np.diff(history, axis=0) == 0.0
        if np.count_nonzero(repeated) / (w - 1) <= self.max_flat_fraction:
            flat = quiet
        else:
            cum = np.zeros((history.shape[0], self.n_channels),
                           dtype=np.int64)
            np.cumsum(repeated, axis=0, out=cum[1:])
            # the w - 1 adjacent-equal pairs of a window are the history
            # diffs at rows start .. start + w - 2
            flat = ((cum[starts + w - 1] - cum[starts]) / (w - 1)
                    > self.max_flat_fraction).tolist()
        return saturated, flat

    def push(self, values: tuple[float, ...]) -> list[tuple[int, bool, str]]:
        """Ingest one raw frame; returns mask transitions, if any.

        Each transition is ``(channel, masked, reason)`` with reason
        ``"flat"``/``"saturated"`` on masking and ``"recovered"`` on
        unmasking.  Between checks this is one ring-row write and a
        compare — cheap enough for the 100 Hz hot path.
        """
        if len(values) != self.n_channels:
            raise ValueError(
                f"frame has {len(values)} channels, guard has "
                f"{self.n_channels}")
        self._ring[self._ring_pos] = values
        self._ring_pos = (self._ring_pos + 1) % self.window
        if self._ring_len < self.window:
            self._ring_len += 1
        self._since_check += 1
        if (self._since_check < self.check_every
                or self._ring_len < self.window):
            return []
        self._since_check = 0
        window = self.window_rows()
        transitions: list[tuple[int, bool, str]] = []
        for c in range(self.n_channels):
            column = window[:, c]
            change = self._judge(c, self._verdict(column))
            if change is not None:
                transitions.append((c, *change))
            elif not self._masked[c]:
                # remember the healthy level so a masked channel can be
                # replaced by its own recent past, not by zero
                self._hold[c] = float(np.median(column))
                self._hold_window[c] = None
        return transitions

    def push_block(self, values: np.ndarray
                   ) -> list[tuple[int, list[tuple[int, bool, str, float]]]]:
        """Ingest N raw frames at once; bit-identical to N :meth:`push` calls.

        *values* is an ``(N, n_channels)`` float matrix.  Returns
        ``(offset, transitions)`` pairs for the frames whose check produced
        mask transitions; each transition is ``(channel, masked, reason,
        hold)`` — :meth:`push`'s tuple plus a snapshot of
        :meth:`hold_value` *at that check*, which a block consumer needs
        because the guard's hold state keeps evolving through the rest of
        the block.  Check cadence is scheduled up front (it only depends
        on the sample count); a block no check falls in only writes the
        ring.  Otherwise :meth:`_block_verdicts` judges every check's
        window of ring-plus-block at once, the mask/streak bookkeeping
        replays sequentially, and the hold medians are left to
        :meth:`hold_value`, which takes them only when read.
        """
        x = np.asarray(values, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_channels:
            raise ValueError(
                f"frame block has {x.shape[1] if x.ndim == 2 else '?'} "
                f"channels, guard has {self.n_channels}")
        n = x.shape[0]
        w = self.window
        carried = self._ring_len
        # a check fires at offset i once since_check >= check_every AND the
        # window is full; since_check resets only when a check actually runs
        first = max(0, self.check_every - 1 - self._since_check,
                    w - 1 - carried)
        if first >= n:
            self._write(x)
            self._since_check += n
            return []
        history = np.concatenate((*self._chronological(), x))
        self._write(x)
        check_offsets = range(first, n, self.check_every)
        self._since_check = n - 1 - check_offsets[-1]
        # start row in history of the window ending at each check offset
        starts = np.arange(carried + first + 1 - w, carried + n + 1 - w,
                           self.check_every)
        n_ch = self.n_channels
        saturated, flat = self._block_verdicts(history, starts)
        starts = starts.tolist()

        # start row of each channel's newest in-block healthy window
        hold_start: list[int | None] = [None] * n_ch

        def hold_at(c: int) -> float:
            start = hold_start[c]
            if start is None:
                return self.hold_value(c)
            return float(np.median(history[start:start + w, c]))

        out: list[tuple[int, list[tuple[int, bool, str, float]]]] = []
        for j, off in enumerate(check_offsets):
            transitions: list[tuple[int, bool, str, float]] = []
            for c in range(n_ch):
                change = self._judge(
                    c, "saturated" if saturated[j][c]
                    else "flat" if flat[j][c] else "")
                if change is not None:
                    transitions.append((c, *change, hold_at(c)))
                elif not self._masked[c]:
                    hold_start[c] = starts[j]
            if transitions:
                out.append((off, transitions))
        windows: dict[int, np.ndarray] = {}
        for c, start in enumerate(hold_start):
            if start is not None:
                if start not in windows:
                    windows[start] = history[start:start + w].copy()
                self._hold_window[c] = windows[start][:, c]
        return out

    def clear_window(self) -> None:
        """Forget buffered samples (after a stream gap); masks persist."""
        self._ring_pos = 0
        self._ring_len = 0
        self._since_check = 0

    def reset(self) -> None:
        """Forget everything, including masks and held levels."""
        self.clear_window()
        self._masked = [False] * self.n_channels
        self._reasons = [""] * self.n_channels
        self._healthy_streak = [0] * self.n_channels
        self._hold = [0.0] * self.n_channels
        self._hold_window = [None] * self.n_channels
