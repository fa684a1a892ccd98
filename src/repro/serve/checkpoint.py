"""Session checkpoint/restore: migrate a live stream across workers.

A :class:`~repro.serve.session.ServeSession` is mostly *small* streaming
state: the segmenter's threshold history and envelope, the SBC and
prefilter windows, the channel guard's health buffers, a short raw/delta
history ring and a handful of scalars — a few kilobytes of plain data.
This module serializes exactly that state (plus the still-queued frames)
into a JSON-safe payload, so a shard front-end can move a session to
another worker **mid-gesture** with zero lost events: an open segment,
a half-warmed threshold and a masked channel all survive the hop.

Exactness is the contract, not approximation: every float crosses the
wire through JSON's shortest-round-trip repr (bit-exact for float64),
windows and the raw/delta history (into the destination engine's own
rings) are restored in order, and the segmenter's threshold ring is
copied in its rotated layout.  The golden migrate-mid-stream test pins
the result — a session checkpointed between two arbitrary frames and
restored on a second manager must produce the byte-identical event
``repr`` sequence of an unmigrated run.

What is *not* serialized: models and configuration.  The destination
manager's ``engine_factory`` must build engines equivalent to the
source's — that is a deployment invariant of a homogeneous shard fleet —
and a ``config_digest`` guards against accidental mismatches (restoring
onto a manager whose engines disagree raises instead of silently
diverging).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.calibration import ChannelGuard
from repro.core.pipeline import AirFinger
from repro.core.segmentation import Segment
from repro.serve import protocol
from repro.serve.session import ServeSession, SessionManager

__all__ = [
    "CHECKPOINT_SCHEMA",
    "config_digest",
    "engine_state",
    "load_engine_state",
    "checkpoint_session",
    "restore_session",
]

#: Bump on any change to the payload layout; restore rejects mismatches.
CHECKPOINT_SCHEMA = 1


def config_digest(engine: AirFinger) -> str:
    """Fingerprint of the engine configuration a checkpoint depends on.

    Covers the full :class:`AirFingerConfig` (every window/threshold the
    serialized state is sized against) plus the pipeline wrapper knobs
    that change event output.  Dataclass ``repr`` is deterministic and
    floats repr shortest-round-trip, so equal configs digest equally
    across processes and hosts.
    """
    text = "|".join((
        repr(engine.config),
        repr(engine.live_update_every),
        repr(engine.gate_fraction),
        repr(engine.channel_guard),
    ))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# engine state
# ---------------------------------------------------------------------------

def engine_state(engine: AirFinger) -> dict:
    """The engine's complete streaming state as JSON-safe plain data."""
    seg = engine._segmenter
    raw, delta = engine._history()
    state: dict = {
        "segmenter": {
            # the ring is copied in its rotated layout: every valid slot
            # as-is plus the cursor, so refresh order is bit-preserved
            "hist": [float(v) for v in seg._hist_buf[:seg._hist_len]],
            "hist_pos": seg._hist_pos,
            "threshold": float(seg._threshold),
            "since_refresh": seg._since_refresh,
            "index": seg._index,
            "open_start": seg._open_start,
            "pending": ([seg._pending.start, seg._pending.end]
                        if seg._pending is not None else None),
            "gap": seg._gap,
            "env": [float(v) for v in seg._env_buffer],
            "env_sum": float(seg._env_sum),
        },
        "sbc": {
            "buffer": [float(v) for v in engine._combined_sbc._buffer],
            "count": engine._combined_sbc._count,
        },
        # one entry per channel (the schema-1 layout of per-channel
        # filters), whatever shape the engine keeps them in
        "prefilters": ([] if engine._prefilter is None else [
            {"buffer": [float(v) for v in buffered], "sum": float(s)}
            for buffered, s in engine._prefilter.channel_state()]),
        "raw": raw.tolist(),
        "delta": delta.tolist(),
        "fed": engine._fed,
        "last_time_s": float(engine._last_time_s),
        "live_cooldown": engine._live_cooldown,
        "live_track_open": engine._live_track_open,
        "anchor": engine._anchor,
        "pos": engine._pos,
        "last_values": ([float(v) for v in engine._last_values]
                        if engine._last_values is not None else None),
        "hold": [float(v) for v in engine._hold],
    }
    guard = engine._guard
    if guard is not None:
        state["guard"] = {
            "n_channels": guard.n_channels,
            # per-channel sample lists, oldest first
            "buffers": guard.window_rows().T.tolist(),
            "masked": list(guard._masked),
            "reasons": list(guard._reasons),
            "healthy_streak": list(guard._healthy_streak),
            "hold": [float(guard.hold_value(c))
                     for c in range(guard.n_channels)],
            "since_check": guard._since_check,
        }
    else:
        state["guard"] = None
    return state


def load_engine_state(engine: AirFinger, state: dict) -> AirFinger:
    """Restore :func:`engine_state` output onto a freshly-built engine.

    *engine* must come from an equivalently-configured factory (the
    caller checks :func:`config_digest`); its streaming state is
    overwritten wholesale.  A history no engine can hold is refused with
    ``ValueError`` before anything is loaded.
    """
    _check_history(engine, state)
    seg = engine._segmenter
    s = state["segmenter"]
    hist = s["hist"]
    seg._hist_buf[:len(hist)] = np.asarray(hist, dtype=np.float64)
    seg._hist_len = len(hist)
    seg._hist_pos = int(s["hist_pos"])
    seg._threshold = float(s["threshold"])
    seg._since_refresh = int(s["since_refresh"])
    seg._index = int(s["index"])
    seg._open_start = (int(s["open_start"])
                       if s["open_start"] is not None else None)
    seg._pending = (Segment(int(s["pending"][0]), int(s["pending"][1]))
                    if s["pending"] is not None else None)
    seg._gap = int(s["gap"])
    seg._env_buffer.clear()
    seg._env_buffer.extend(float(v) for v in s["env"])
    seg._env_sum = float(s["env_sum"])

    sbc = engine._combined_sbc
    sbc._buffer.clear()
    sbc._buffer.extend(float(v) for v in state["sbc"]["buffer"])
    sbc._count = int(state["sbc"]["count"])

    # the last values carry the stream's channel count; history rows
    # load into the rings at the positions they held
    raw = state["raw"]
    engine._hist_start = int(state["pos"]) - len(raw)
    engine._prefilter = engine._raw = engine._delta = None
    if state["last_values"] is not None:
        engine._open(len(state["last_values"]))
        engine._prefilter.load_channel_state(
            [(entry["buffer"], entry["sum"])
             for entry in state["prefilters"]])
        if raw:
            engine._keep(engine._hist_start,
                         np.array([list(map(float, row)) for row in raw]),
                         np.array(list(map(float, state["delta"]))))
    engine._fed = int(state["fed"])
    engine._last_time_s = float(state["last_time_s"])
    engine._live_cooldown = int(state["live_cooldown"])
    engine._live_track_open = bool(state["live_track_open"])
    engine._anchor = (int(state["anchor"])
                      if state["anchor"] is not None else None)
    engine._pos = int(state["pos"])
    engine._last_values = (tuple(float(v) for v in state["last_values"])
                           if state["last_values"] is not None else None)
    engine._hold = [float(v) for v in state["hold"]]

    g = state["guard"]
    if g is None:
        engine._guard = None
    else:
        # same construction as the pipeline's first-frame path, so the
        # restored guard shares its config-derived thresholds
        guard = ChannelGuard(
            n_channels=int(g["n_channels"]),
            window=engine.config.guard_window_samples,
            check_every=engine.config.guard_check_every_samples,
            recovery_checks=engine.config.guard_recovery_checks)
        buffers = g["buffers"]
        if buffers and buffers[0]:
            guard.load_window(np.asarray(buffers, dtype=np.float64).T)
        guard._masked = [bool(v) for v in g["masked"]]
        guard._reasons = [str(v) for v in g["reasons"]]
        guard._healthy_streak = [int(v) for v in g["healthy_streak"]]
        guard._hold = [float(v) for v in g["hold"]]
        guard._since_check = int(g["since_check"])
        engine._guard = guard
    return engine


def _check_history(engine: AirFinger, state: dict) -> None:
    """Refuse raw/delta history no engine could have kept.

    A stream's first frame sets its channel count (``last_values``
    carries it; none before the first frame): the prefilter, the guard
    and every raw row have that count, and ``raw`` and ``delta`` grow
    together under the engine's history length.  A payload breaking that
    would load, then fail at the next dispatch.
    """
    last = state["last_values"]
    width = 0 if last is None else len(last)
    raw, delta = state["raw"], state["delta"]
    if len(raw) != len(delta):
        raise ValueError(f"checkpoint history has {len(raw)} raw rows but "
                         f"{len(delta)} delta values")
    if len(raw) > engine._history_len:
        raise ValueError(f"checkpoint history has {len(raw)} rows, this "
                         f"engine keeps {engine._history_len}")
    if len(state["prefilters"]) != width:
        raise ValueError(f"checkpoint has {len(state['prefilters'])} "
                         f"prefilters for {width} channels")
    guard = state["guard"]
    if guard is not None and int(guard["n_channels"]) != width:
        raise ValueError(f"checkpoint guard has {guard['n_channels']} "
                         f"channels for {width}")
    for k, row in enumerate(raw):
        if len(row) != width:
            raise ValueError(f"checkpoint raw row {k} has {len(row)} "
                             f"values for {width} channels")


# ---------------------------------------------------------------------------
# session state
# ---------------------------------------------------------------------------

def checkpoint_session(manager: SessionManager,
                       session: ServeSession) -> dict:
    """Capture *session* for migration and detach it from *manager*.

    The payload carries the engine state, every still-queued frame (in
    the same ``[index, time_s, [values...]]`` layout the wire protocol
    uses) and the lifetime counters.  Nothing is dispatched or flushed:
    an open segment stays open and finishes on the destination worker.
    """
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "tenant": session.tenant,
        "session": session.session_id,
        "config_digest": config_digest(session.engine),
        "engine": engine_state(session.engine),
        "queue": [row for block, _enq in session.queue
                  for row in protocol.frames_message(block)["frames"]],
        "frames_in": session.frames_in,
        "events_out": session.events_out,
        "dropped": session.dropped,
    }
    manager.detach(session)
    return payload


def restore_session(manager: SessionManager, payload: dict) -> ServeSession:
    """Adopt a checkpointed session on *manager*; the inverse of
    :func:`checkpoint_session`.

    Builds a fresh engine from the manager's factory, verifies the
    config digest (a fleet whose workers serve different configs must
    fail loudly, not drift), loads the streaming state and re-queues the
    in-flight frames — their latency clock restarts at restore time on
    the destination's injected clock.
    """
    if not isinstance(payload, dict):
        raise ValueError("checkpoint payload must be a dict")
    schema = payload.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"unsupported checkpoint schema {schema!r} "
            f"(this worker speaks {CHECKPOINT_SCHEMA})")
    engine = manager.new_engine()
    digest = config_digest(engine)
    if payload["config_digest"] != digest:
        raise ValueError(
            f"engine config mismatch: checkpoint was taken under "
            f"{payload['config_digest']}, this manager builds {digest}")
    load_engine_state(engine, payload["engine"])
    queued = protocol.decode_frames({"frames": payload.get("queue", [])})
    session = manager.adopt(
        payload["tenant"], payload["session"], engine,
        frames_in=int(payload.get("frames_in", 0)),
        events_out=int(payload.get("events_out", 0)),
        dropped=int(payload.get("dropped", 0)))
    if len(queued):
        session.queue.append((queued, session.last_active_s))
        session.pending = len(queued)
    if session.queue_gauge is not None:
        session.queue_gauge.set(session.pending)
    return session
