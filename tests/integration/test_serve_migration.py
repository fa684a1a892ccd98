"""Golden migrate-mid-stream: checkpoint/restore loses zero events.

The migration acceptance contract: a session checkpointed between two
arbitrary frames on one :class:`~repro.serve.session.SessionManager` and
restored onto a *different* manager instance produces — across the two
halves concatenated — the byte-identical event ``repr`` sequence of an
unmigrated in-process replay, for every golden stream case (clean and
fault-injected).  Open segments, half-warmed thresholds, masked channels
and still-queued frames all survive the hop.

Also covered: exact engine-state round-trips (serialize → load →
serialize is a fixed point), config-digest guarding, and the wire-level
flow — ``checkpoint`` on server A (which closes the device connection),
``restore`` on server B, device reconnects to B and the stream
continues.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, Tracer
from repro.serve import (
    AirFingerServer,
    ServeClient,
    ServeConfig,
    SessionManager,
    protocol,
)
from repro.serve.checkpoint import (
    CHECKPOINT_SCHEMA,
    checkpoint_session,
    config_digest,
    engine_state,
    load_engine_state,
    restore_session,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from golden.stream_cases import build_stream_cases  # noqa: E402

SCHEMA1_PATH = (Path(__file__).resolve().parents[1] / "golden"
                / "checkpoint_schema1.json")


@pytest.fixture(scope="module")
def stream_cases():
    return build_stream_cases()


def _manager(config: ServeConfig | None = None) -> SessionManager:
    registry = MetricsRegistry()
    return SessionManager(
        config or ServeConfig(),
        engine_factory=lambda: AirFinger(metrics=registry,
                                         tracer=Tracer(sample=0.0)),
        metrics=registry, tracer=Tracer(sample=0.0))


def _reference(frames) -> list[str]:
    engine = AirFinger(metrics=MetricsRegistry(), tracer=Tracer(sample=0.0))
    return [repr(e) for e in engine.feed_frames(frames)]


def _drain(manager: SessionManager, session) -> list:
    events = []
    while session.pending:
        events.extend(manager.dispatch(session))
    return events


class TestGoldenMigration:
    def test_every_case_survives_mid_stream_migration(self, stream_cases):
        """Checkpoint at the halfway frame; events concat == reference."""
        for name, frames in stream_cases:
            cut = len(frames) // 2
            manager_a, manager_b = _manager(), _manager()
            session = manager_a.open("migrate", "dev0")
            manager_a.enqueue(session, frames[:cut])
            events = _drain(manager_a, session)

            state = checkpoint_session(manager_a, session)
            assert manager_a.get("migrate", "dev0") is None
            restored = restore_session(manager_b, state)
            assert restored is not session

            manager_b.enqueue(restored, frames[cut:])
            events += _drain(manager_b, restored)
            events += manager_b.close(restored)
            assert [repr(e) for e in events] == _reference(frames), (
                f"case {name!r}: migration changed the event stream")

    def test_awkward_cut_points(self, stream_cases):
        """Cuts at 1/5 and 4/5 — likely mid-segment / mid-warmup."""
        name, frames = stream_cases[0]
        reference = _reference(frames)
        for num in (1, 4):
            cut = num * len(frames) // 5
            manager_a, manager_b = _manager(), _manager()
            session = manager_a.open("migrate", "dev0")
            manager_a.enqueue(session, frames[:cut])
            events = _drain(manager_a, session)
            restored = restore_session(
                manager_b, checkpoint_session(manager_a, session))
            manager_b.enqueue(restored, frames[cut:])
            events += _drain(manager_b, restored)
            events += manager_b.close(restored)
            assert [repr(e) for e in events] == reference, (
                f"case {name!r} cut at {cut}: events diverged")

    def test_queued_frames_ride_the_checkpoint(self, stream_cases):
        """Undispatched frames in the queue survive the hop verbatim."""
        _, frames = stream_cases[0]
        cut = len(frames) // 2
        config = ServeConfig(max_batch_frames=64)
        manager_a = _manager(config)
        manager_b = _manager(config)
        session = manager_a.open("migrate", "dev0")
        manager_a.enqueue(session, frames[:cut])
        events = manager_a.dispatch(session)      # one batch only
        assert session.pending > 0                # frames still queued
        queued_before = session.pending
        state = checkpoint_session(manager_a, session)
        assert len(state["queue"]) == queued_before
        restored = restore_session(manager_b, state)
        assert restored.pending == queued_before
        manager_b.enqueue(restored, frames[cut:])
        events += _drain(manager_b, restored)
        events += manager_b.close(restored)
        assert [repr(e) for e in events] == _reference(frames)

    def test_counters_carry_across(self, stream_cases):
        _, frames = stream_cases[0]
        manager_a, manager_b = _manager(), _manager()
        session = manager_a.open("migrate", "dev0")
        manager_a.enqueue(session, frames[:200])
        _drain(manager_a, session)
        frames_in = session.frames_in
        events_out = session.events_out
        restored = restore_session(
            manager_b, checkpoint_session(manager_a, session))
        assert restored.frames_in == frames_in
        assert restored.events_out == events_out


class TestEngineStateExactness:
    def test_state_round_trip_is_fixed_point(self, stream_cases):
        """serialize → load onto a fresh engine → serialize: identical."""
        for name, frames in stream_cases:
            source = AirFinger(metrics=MetricsRegistry(),
                               tracer=Tracer(sample=0.0))
            source.feed_frames(frames[:len(frames) // 2])
            state = engine_state(source)
            clone = AirFinger(metrics=MetricsRegistry(),
                              tracer=Tracer(sample=0.0))
            load_engine_state(clone, state)
            assert engine_state(clone) == state, (
                f"case {name!r}: state round-trip not exact")

    def test_state_is_json_safe(self, stream_cases):
        _, frames = stream_cases[0]
        engine = AirFinger(metrics=MetricsRegistry(),
                           tracer=Tracer(sample=0.0))
        engine.feed_frames(frames[:300])
        state = engine_state(engine)
        rehydrated = json.loads(json.dumps(state, allow_nan=False))
        clone = AirFinger(metrics=MetricsRegistry(),
                          tracer=Tracer(sample=0.0))
        load_engine_state(clone, rehydrated)
        assert engine_state(clone) == state


class TestSchemaOnePayload:
    """A committed schema-1 checkpoint still restores exactly.

    ``golden/checkpoint_schema1.json`` was captured mid-gesture (segment
    open, channel 1 masked, three frames still queued) from the engine
    that kept one prefilter per channel and one deque per guard channel.
    Today's engine keeps a single frame prefilter and a 2-D guard ring,
    but the payload layout must not move: the restored session has to
    continue exactly as an unmigrated replay does.
    """

    @pytest.fixture(scope="class")
    def fixture(self):
        return json.loads(SCHEMA1_PATH.read_text())

    def test_restore_continues_like_unmigrated_replay(self, fixture,
                                                      stream_cases):
        payload = fixture["payload"]
        assert payload["schema"] == CHECKPOINT_SCHEMA == 1
        assert payload["engine"]["segmenter"]["open_start"] is not None
        assert any(payload["engine"]["guard"]["masked"])
        frames = dict(stream_cases)[fixture["case"]]
        manager = _manager(ServeConfig(max_batch_frames=10))
        session = restore_session(manager, payload)
        manager.enqueue(session, frames[fixture["cut"]:])
        events = _drain(manager, session)
        # every window (guard ring, prefilter, SBC, threshold history)
        # carried on exactly as in an engine that never stopped
        unmigrated = AirFinger(metrics=MetricsRegistry(),
                               tracer=Tracer(sample=0.0))
        for frame in frames:
            unmigrated.feed(frame)
        assert engine_state(session.engine) == engine_state(unmigrated)
        events += manager.close(session)
        assert (fixture["events_before"] + [repr(e) for e in events]
                == _reference(frames))

    def test_layout_is_a_fixed_point(self, fixture):
        """Load the old payload, serialize again: the same plain data."""
        state = fixture["payload"]["engine"]
        engine = AirFinger(metrics=MetricsRegistry(),
                           tracer=Tracer(sample=0.0))
        load_engine_state(engine, state)
        assert engine_state(engine) == state


class TestGuards:
    def test_digest_mismatch_refuses_restore(self):
        manager_a, manager_b = _manager(), _manager()
        session = manager_a.open("t", "d")
        state = checkpoint_session(manager_a, session)
        state["config_digest"] = "0" * 16
        with pytest.raises(ValueError, match="config mismatch"):
            restore_session(manager_b, state)

    def test_schema_mismatch_refuses_restore(self):
        manager_a, manager_b = _manager(), _manager()
        session = manager_a.open("t", "d")
        state = checkpoint_session(manager_a, session)
        state["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            restore_session(manager_b, state)

    def test_restore_refuses_live_slot(self):
        manager_a, manager_b = _manager(), _manager()
        session = manager_a.open("t", "d")
        state = checkpoint_session(manager_a, session)
        manager_b.open("t", "d")                  # slot already live
        with pytest.raises(ValueError):
            restore_session(manager_b, state)

    @pytest.fixture()
    def open_segment_state(self, stream_cases):
        """``clean_mixed`` checkpointed at frame 151, a segment open
        since 131, channel guard on."""
        manager = _manager(ServeConfig(max_batch_frames=10))
        session = manager.open("t", "d")
        manager.enqueue(session, dict(stream_cases)["clean_mixed"][:151])
        _drain(manager, session)
        state = checkpoint_session(manager, session)
        assert state["engine"]["segmenter"]["open_start"] == 131
        assert state["engine"]["guard"]["n_channels"] == 3
        return state

    @pytest.mark.parametrize("damage, match", [
        (lambda e: e["raw"].__setitem__(-1, e["raw"][-1][:2]), "raw row"),
        (lambda e: e["raw"].__setitem__(0, e["raw"][0] + [1.0]), "raw row"),
        (lambda e: e["prefilters"].pop(), "prefilters"),
        (lambda e: e["delta"].pop(), "delta values"),
        (lambda e: (e["raw"].extend(e["raw"][-1:] * 600),
                    e["delta"].extend(e["delta"][-1:] * 600)),
         "this engine keeps"),
    ])
    def test_restore_refuses_history_no_guarded_engine_holds(
            self, open_segment_state, stream_cases, damage, match):
        damage(open_segment_state["engine"])
        manager = _manager(ServeConfig(max_batch_frames=10))
        with pytest.raises(ValueError, match=match):
            restore_session(manager, open_segment_state)
        assert manager.get("t", "d") is None

    def test_intact_history_still_restores(self, open_segment_state,
                                           stream_cases):
        frames = dict(stream_cases)["clean_mixed"]
        manager = _manager(ServeConfig(max_batch_frames=10))
        session = restore_session(manager, open_segment_state)
        manager.enqueue(session, frames[151:])
        assert _drain(manager, session) + manager.close(session)

    def test_digest_equal_for_equal_configs(self):
        manager = _manager()
        assert config_digest(manager.new_engine()) == config_digest(
            manager.new_engine())


class TestWireMigration:
    def test_checkpoint_restore_over_the_wire(self, stream_cases):
        """Device on A → checkpoint → restore on B → device reconnects."""
        _, frames = stream_cases[0]
        cut = len(frames) // 2

        async def run() -> list:
            manager_a, manager_b = _manager(), _manager()
            async with AirFingerServer(manager_a) as server_a, \
                    AirFingerServer(manager_b) as server_b:
                dev = await ServeClient.connect(
                    "127.0.0.1", server_a.port, "acme", "dev7")
                for i in range(0, cut, 64):
                    await dev.send_frames(frames[i:i + 64])
                    await dev.pump()
                # let A fully dispatch before the capture
                session = manager_a.get("acme", "dev7")
                while session.pending:
                    await asyncio.sleep(0.01)
                ctl_a = await ServeClient.connect(
                    "127.0.0.1", server_a.port, "_fleet", "ctl")
                state = await ctl_a.checkpoint("acme", "dev7")
                await ctl_a.bye()
                # the device's connection was closed by the capture;
                # drain whatever events were already in flight
                while await dev._read_some(0.05):
                    pass
                events = list(dev.events)
                assert manager_a.get("acme", "dev7") is None

                ctl_b = await ServeClient.connect(
                    "127.0.0.1", server_b.port, "_fleet", "ctl")
                assert await ctl_b.restore(state) == "dev7"
                await ctl_b.bye()
                # reconnect: open() on B hands back the restored session
                dev2 = await ServeClient.connect(
                    "127.0.0.1", server_b.port, "acme", "dev7")
                for i in range(cut, len(frames), 64):
                    await dev2.send_frames(frames[i:i + 64])
                    await dev2.pump()
                events += await dev2.bye()
                return events

        events = asyncio.run(run())
        assert [repr(e) for e in events] == _reference(frames)

    def test_ragged_history_gets_restore_failed(self, stream_cases):
        """A served session answers a bad history with ``restore failed``
        and the link stays up."""
        frames = dict(stream_cases)["clean_mixed"]

        async def run() -> None:
            manager = _manager()
            session = manager.open("acme", "dev7")
            manager.enqueue(session, frames[:151])
            _drain(manager, session)
            state = checkpoint_session(manager, session)
            good = json.loads(json.dumps(state))
            state["engine"]["raw"][-1] = state["engine"]["raw"][-1][:2]
            async with AirFingerServer(manager) as server:
                ctl = await ServeClient.connect(
                    "127.0.0.1", server.port, "_fleet", "ctl")
                with pytest.raises(protocol.ProtocolError,
                                   match="restore failed: checkpoint raw "
                                         "row 150 has 2 values"):
                    await ctl.restore(state)
                assert manager.get("acme", "dev7") is None
                assert await ctl.restore(good) == "dev7"
                await ctl.bye()

        asyncio.run(run())

    def test_checkpoint_unknown_session_is_refused(self):
        async def run() -> None:
            manager = _manager()
            async with AirFingerServer(manager) as server:
                ctl = await ServeClient.connect(
                    "127.0.0.1", server.port, "_fleet", "ctl")
                with pytest.raises(protocol.ProtocolError,
                                   match="no live session"):
                    await ctl.checkpoint("ghost", "nope")
                await ctl.bye()

        asyncio.run(run())
