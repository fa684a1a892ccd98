"""Multi-stream gesture serving: sessions, wire protocol, TCP and UDP.

This package turns the single-stream :class:`~repro.core.pipeline.AirFinger`
engine into a serving system: a :class:`~repro.serve.session.SessionManager`
multiplexes N concurrent device streams through per-session engine
instances with bounded queues and explicit backpressure, and one
transport-independent :class:`~repro.serve.service.SessionService` serves
them — the message switch, one dispatch pump per session, the idle
reaper, the ``stats`` payload and a live
:class:`~repro.obs.telemetry.TelemetryPlane` whose ticks ``watch``
subscribers (``airfinger top``, the loadgen's ``--telemetry-json``
timeline) receive.  Two thin adapters carry it: the TCP
:class:`~repro.serve.server.AirFingerServer` frames messages on a byte
stream (:mod:`repro.serve.protocol`), and the UDP
:class:`~repro.serve.udp.UdpAirFingerServer` sends one message per
datagram for connectionless devices.  Both serve the same message set;
:class:`~repro.serve.client.ServeClient` and
:class:`~repro.serve.udp.UdpServeClient` share one client core.  The
load generator (:mod:`repro.serve.loadgen`) measures sessions/core, p99
frame latency and deadline-miss rate against a live server.

Beyond one process: :mod:`repro.serve.shard` runs a worker process per
core behind a :class:`~repro.serve.shard.FleetControlServer` that merges
stats and telemetry, and :mod:`repro.serve.checkpoint` serializes live
session state so streams migrate across workers mid-gesture with zero
lost events.

See ``docs/SERVING.md`` for the architecture and the serving guarantees
(event fidelity over the wire, drop-oldest backpressure surfacing as
:class:`~repro.core.events.StreamGap` events, idle eviction).
"""

from repro.serve.checkpoint import (
    checkpoint_session,
    restore_session,
)
from repro.serve.client import ServeClient
from repro.serve.loadgen import (
    LoadConfig,
    LoadReport,
    Pacer,
    make_device_frames,
    run_load,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    MessageDecoder,
    ProtocolError,
    encode_message,
)
from repro.serve.server import AirFingerServer
from repro.serve.service import SessionService
from repro.serve.session import ServeConfig, ServeSession, SessionManager
from repro.serve.shard import (
    FleetControlServer,
    ShardCluster,
    ShardConfig,
    shard_for_tenant,
)
from repro.serve.udp import UdpAirFingerServer, UdpServeClient

__all__ = [
    "PROTOCOL_VERSION",
    "AirFingerServer",
    "FleetControlServer",
    "LoadConfig",
    "LoadReport",
    "MessageDecoder",
    "Pacer",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeSession",
    "SessionManager",
    "SessionService",
    "ShardCluster",
    "ShardConfig",
    "UdpAirFingerServer",
    "UdpServeClient",
    "checkpoint_session",
    "encode_message",
    "make_device_frames",
    "restore_session",
    "run_load",
    "shard_for_tenant",
]
