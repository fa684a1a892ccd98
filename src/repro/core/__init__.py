"""The paper's primary contribution: the airFinger recognition stack.

Data flow (Fig. 4 of the paper)::

    RSS frames ──> SBC (noise mitigation) ──> DT (gesture segmentation)
                      │
                      ├─ dispatcher: detect-aimed vs track-aimed (I_g rule)
                      │
        detect-aimed ─┤                         track-aimed
                      ▼                               ▼
        interference filter (bold-9 RF)         ZEBRA (direction,
                      ▼                          velocity, displacement)
        feature extraction (25 families)
                      ▼
        RF gesture classifier

Modules: :mod:`~repro.core.sbc` (Square Based Calculation),
:mod:`~repro.core.segmentation` (Otsu dynamic threshold + ``t_e``
clustering), :mod:`~repro.core.detector` (detect-aimed recognition),
:mod:`~repro.core.zebra` (Algorithm 1), :mod:`~repro.core.dispatcher`,
:mod:`~repro.core.interference`, and :mod:`~repro.core.pipeline` (the
real-time engine tying it all together).
"""

from repro.core.config import AirFingerConfig
from repro.core.sbc import (
    StreamingMovingAverage,
    StreamingSbc,
    prefilter,
    sbc_transform,
)
from repro.core.segmentation import (
    otsu_threshold,
    DynamicThresholdSegmenter,
    Segment,
)
from repro.core.detector import DetectAimedRecognizer
from repro.core.zebra import ZebraTracker, TrackResult, find_ascending_point
from repro.core.dispatcher import (
    GestureDispatcher,
    SweepSlice,
    channel_lag_s,
    onset_times,
    sweep_statistics,
)
from repro.core.interference import InterferenceFilter
from repro.core.events import (
    ChannelMaskEvent,
    GestureEvent,
    ScrollUpdate,
    SegmentEvent,
    StreamGap,
)
from repro.core.pipeline import DEFAULT_BLOCK_SIZE, AirFinger
from repro.core.persistence import load_stack, save_stack
from repro.core.templates import GestureTemplate, TemplateRecognizer
from repro.core.tracking2d import PlanarTracker, PlanarTrackResult, compass_bin
from repro.core.calibration import (
    CalibrationResult,
    ChannelGuard,
    ChannelHealth,
    SensorCalibrator,
)

__all__ = [
    "AirFingerConfig",
    "sbc_transform",
    "StreamingSbc",
    "StreamingMovingAverage",
    "prefilter",
    "otsu_threshold",
    "DynamicThresholdSegmenter",
    "Segment",
    "DetectAimedRecognizer",
    "ZebraTracker",
    "TrackResult",
    "find_ascending_point",
    "GestureDispatcher",
    "SweepSlice",
    "onset_times",
    "channel_lag_s",
    "sweep_statistics",
    "InterferenceFilter",
    "GestureEvent",
    "ScrollUpdate",
    "SegmentEvent",
    "StreamGap",
    "ChannelMaskEvent",
    "AirFinger",
    "DEFAULT_BLOCK_SIZE",
    "load_stack",
    "save_stack",
    "GestureTemplate",
    "TemplateRecognizer",
    "PlanarTracker",
    "PlanarTrackResult",
    "compass_bin",
    "CalibrationResult",
    "ChannelGuard",
    "ChannelHealth",
    "SensorCalibrator",
]
