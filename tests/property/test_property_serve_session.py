"""Stateful property: a served session's events are a pure function of the
frames that reached its engine.

Hypothesis runs :class:`~repro.serve.session.SessionManager` operations
on a device session in any order — enqueue (frame lists or
:class:`~repro.acquisition.stream.FrameBlock` chunks, with frames lost
in transit, so the engine sees index gaps), dispatch, drop-oldest overflow
of a small queue, checkpoint and restore into a second manager (through
JSON, as on the wire), idle eviction and close, after which the device
opens a fresh session.  However they interleave, the events a session
produced must be ``repr``-equal to :meth:`AirFinger.feed_frames
<repro.core.pipeline.AirFinger.feed_frames>` (which ends with a flush)
over exactly the frames that reached its engine: every enqueued frame,
in order, minus the ones overflow dropped.
"""

from __future__ import annotations

import functools
import json

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.acquisition.stream import FrameBlock
from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, Tracer
from repro.serve import ServeConfig, SessionManager
from repro.serve.checkpoint import checkpoint_session, restore_session
from tests.golden.stream_cases import build_stream_cases

CONFIG = ServeConfig(max_queue_frames=48, max_batch_frames=16,
                     idle_timeout_s=30.0)


@functools.lru_cache(maxsize=1)
def _stream() -> tuple:
    """The golden ``clean_mixed`` stream: gestures live updates and
    segment closes come from."""
    return tuple(dict(build_stream_cases())["clean_mixed"])


def _engine() -> AirFinger:
    return AirFinger(metrics=MetricsRegistry(), tracer=Tracer(sample=0.0))


class SessionMachine(RuleBasedStateMachine):
    """One device session moving between two managers."""

    @initialize()
    def start(self):
        self.now = 0.0
        self.managers = [
            SessionManager(CONFIG, engine_factory=_engine,
                           metrics=MetricsRegistry(),
                           tracer=Tracer(sample=0.0),
                           clock=lambda: self.now)
            for _ in range(2)]
        self.here = 0
        self.frames = _stream()
        self.cursor = 0
        self._open()

    def _open(self) -> None:
        self.session = self.managers[self.here].open("t0", "dev0")
        self.events: list = []
        # the model: frames queued, and frames that reached the engine
        self.queue: list = []
        self.reached: list = []

    # ------------------------------------------------------------------
    @rule(n=st.integers(min_value=1, max_value=40),
          lost=st.integers(min_value=0, max_value=15),
          as_block=st.booleans())
    def enqueue(self, n, lost, as_block):
        """Send *n* frames, after losing *lost* in transit."""
        self.cursor += lost
        frames = list(self.frames[self.cursor:self.cursor + n])
        self.cursor += n
        self.now += 0.01 * n
        manager = self.managers[self.here]
        dropped = manager.enqueue(
            self.session, FrameBlock.from_frames(frames) if as_block
            else frames)
        self.queue.extend(frames)
        overflow = max(0, len(self.queue) - CONFIG.max_queue_frames)
        del self.queue[:overflow]
        assert dropped == overflow

    @rule()
    def dispatch(self):
        self.events += self.managers[self.here].dispatch(self.session)
        batch = self.queue[:CONFIG.max_batch_frames]
        del self.queue[:len(batch)]
        self.reached += batch

    @rule(through_json=st.booleans())
    def migrate(self, through_json):
        """Checkpoint here, restore on the other manager."""
        state = checkpoint_session(self.managers[self.here], self.session)
        if through_json:
            state = json.loads(json.dumps(state))
        assert self.managers[self.here].get("t0", "dev0") is None
        self.here = 1 - self.here
        self.session = restore_session(self.managers[self.here], state)

    @rule()
    def evict(self):
        manager = self.managers[self.here]
        self.now += CONFIG.idle_timeout_s + 1.0
        ((session, tail),) = manager.evict_idle()
        assert session is self.session
        self._end(tail)
        self._open()

    @rule()
    def close(self):
        self._end(self.managers[self.here].close(self.session))
        self._open()

    def _end(self, tail: list) -> None:
        """Check the ended session's events against a replay."""
        self.events += tail
        self.reached += self.queue
        expected = _engine().feed_frames(self.reached)
        assert ([repr(e) for e in self.events]
                == [repr(e) for e in expected])

    # ------------------------------------------------------------------
    @invariant()
    def queue_matches_model(self):
        assert [f for block, _ in self.session.queue
                for f in block.frames()] == self.queue
        assert self.session.pending == len(self.queue)

    def teardown(self):
        if hasattr(self, "session"):
            self._end(self.managers[self.here].close(self.session))


TestSessionManagerOrderings = SessionMachine.TestCase
TestSessionManagerOrderings.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
