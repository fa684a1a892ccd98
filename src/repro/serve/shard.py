"""Sharded multi-process serving: one worker process per core.

The single-process :class:`~repro.serve.server.AirFingerServer` saturates
around one core of pipeline work (the load generator measures
sessions/core); past that, scale is horizontal.  This module runs **N
worker processes**, each with its own event loop, session manager,
metrics registry and telemetry plane, and a parent-side
:class:`FleetControlServer` that makes the fleet look like one server:

* **Routing is shard-by-tenant**: :func:`shard_for_tenant` hashes the
  tenant id with CRC-32 (``zlib.crc32`` — Python's builtin ``hash`` is
  salted per process, so it must never pick a shard) onto a stable
  worker, keeping a tenant's sessions co-resident.  Each worker binds
  its own port, and the control server's ``hello_ack`` lists them.
* **Observability is merged**: the control server polls every worker's
  ``stats`` over the ordinary wire protocol, merges the per-shard
  :class:`~repro.obs.metrics.MetricsSnapshot`\\ s (additive counters and
  histograms; gauges last-writer-wins except the additive set below),
  and feeds the merged view to its own
  :class:`~repro.obs.telemetry.TelemetryPlane` — so ``airfinger top``,
  the SLO burn-rate alerter and ``watch`` subscribers see the fleet as
  one registry.  Control-plane sessions appear under tenant ``_fleet``.
* **Sessions migrate**: :meth:`ShardCluster.migrate` checkpoints a live
  session off one worker and restores it on another (see
  :mod:`repro.serve.checkpoint`) with zero lost events.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import time
import zlib
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, set_registry
from repro.obs.telemetry import TelemetryPlane
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.server import AirFingerServer
from repro.serve.session import ServeConfig, SessionManager

__all__ = [
    "shard_for_tenant",
    "ShardConfig",
    "ShardCluster",
    "FleetControlServer",
    "FleetMetricsView",
]

#: Unlabeled gauges that are per-shard *sums*, not alternatives — the
#: merged view adds them up instead of letting the last shard win.
ADDITIVE_GAUGES = ("serve.sessions_open",)


def shard_for_tenant(tenant: str, n_shards: int) -> int:
    """The stable worker index owning *tenant*'s sessions.

    CRC-32 of the UTF-8 tenant id modulo the shard count: deterministic
    across processes, hosts and Python releases (unlike ``hash``, which
    is salted per interpreter and would scatter a tenant differently on
    every restart).
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(str(tenant).encode("utf-8")) % n_shards


@dataclass
class ShardConfig:
    """Fleet shape for :class:`ShardCluster`."""

    #: worker process count (>= 1); one core each is the scaling unit
    shards: int = 4
    #: bind address of every worker (each on its own ephemeral port)
    #: and of the control server
    host: str = "127.0.0.1"
    #: the parent control server's bind port (0 = ephemeral)
    control_port: int = 0
    serve: ServeConfig = field(default_factory=ServeConfig)
    telemetry_interval_s: float = 1.0
    #: how long to wait for every worker to report its bound port
    start_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")


def _worker_main(shard_index: int, host: str, serve_config: ServeConfig,
                 telemetry_interval_s: float, pipe) -> None:
    """One shard worker: fresh registry + manager + server, own loop.

    Top-level by design so the function is importable under any
    multiprocessing start method, not just fork.  Reports the bound port
    back over *pipe* once listening, then serves until terminated.
    """
    registry = MetricsRegistry()
    set_registry(registry)  # pipeline/server series land per-worker
    manager = SessionManager(serve_config, metrics=registry)
    server = AirFingerServer(manager, host=host,
                             telemetry_interval_s=telemetry_interval_s)

    async def main() -> None:
        await server.start()
        pipe.send({"shard": shard_index, "host": host, "port": server.port})
        pipe.close()
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


class FleetMetricsView:
    """A registry-shaped view merging local series with shard snapshots.

    Quacks enough like a :class:`MetricsRegistry` for the telemetry
    plane: ``snapshot()`` returns the control process's own registry
    merged with the most recent fleet merge (so alerter bookkeeping and
    client RTT series live alongside worker counters), and the metric
    constructors delegate to the local registry.  :meth:`update` swaps
    in a new fleet merge; gauges named in :data:`ADDITIVE_GAUGES` are
    summed across shards instead of last-writer-wins.
    """

    def __init__(self, local: MetricsRegistry | None = None) -> None:
        self.local = local if local is not None else MetricsRegistry()
        self._remote = MetricsSnapshot()

    def update(self, shard_snapshots: list[MetricsSnapshot]) -> None:
        merged = MetricsSnapshot()
        additive: dict[str, float] = {}
        for snap in shard_snapshots:
            merged = merged.merged(snap)
            for key in ADDITIVE_GAUGES:
                if key in snap.gauges:
                    additive[key] = (additive.get(key, 0.0)
                                     + snap.gauges[key])
        merged.gauges.update(additive)
        self._remote = merged

    def snapshot(self) -> MetricsSnapshot:
        return self.local.snapshot().merged(self._remote)

    # registry-constructor surface, delegated to the local registry
    def counter(self, name: str, **labels):
        return self.local.counter(name, **labels)

    def gauge(self, name: str, **labels):
        return self.local.gauge(name, **labels)

    def histogram(self, name: str, buckets=None, **labels):
        if buckets is None:
            return self.local.histogram(name, **labels)
        return self.local.histogram(name, buckets=buckets, **labels)


class FleetControlServer(AirFingerServer):
    """The parent-side front-end making N shard workers look like one.

    Speaks the ordinary serve protocol.  Differences from a plain
    server: its ``hello_ack`` advertises the shard listing (clients
    route data connections with :func:`shard_for_tenant`), its
    ``stats`` reply merges every worker's snapshot, and its telemetry
    plane samples the merged view — one ``airfinger top`` against this
    port watches the whole fleet.  It still serves data sessions itself
    (useful for probes), booked under its own registry.
    """

    def __init__(self, shards: list[dict], host: str = "127.0.0.1",
                 port: int = 0, config: ServeConfig | None = None,
                 telemetry_interval_s: float = 1.0,
                 timeline_path=None) -> None:
        view = FleetMetricsView()
        manager = SessionManager(config, metrics=view.local)
        plane = TelemetryPlane(metrics=view,
                               interval_s=telemetry_interval_s)
        super().__init__(manager, host=host, port=port, telemetry=plane,
                         timeline_path=timeline_path)
        self.fleet = view
        self.shard_listing = [
            {"shard": int(s["shard"]), "host": str(s["host"]),
             "port": int(s["port"])} for s in shards]
        self._shard_clients: dict[int, ServeClient] = {}

    # -- protocol overrides -------------------------------------------
    def _hello_ack_message(self, session_id: str) -> dict:
        return protocol.hello_ack(
            session_id,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
            max_batch_frames=self.config.max_batch_frames,
            shards=self.shard_listing)

    async def _stats_payload(self) -> dict:
        await self.refresh_fleet()
        snapshot = self.manager.stats()
        snapshot["metrics"] = self.fleet.snapshot().to_dict()
        snapshot["shards"] = self.shard_listing
        return snapshot

    async def _telemetry_tick(self) -> dict:
        # a dead worker must not stall the tick; it just drops out of
        # the merge until it answers again
        with contextlib.suppress(Exception):
            await self.refresh_fleet()
        return self.telemetry.tick()

    # -- fleet polling ------------------------------------------------
    async def refresh_fleet(self) -> None:
        """Poll every worker's stats and swap in a fresh merged view."""
        snapshots = []
        for entry in self.shard_listing:
            snap = await self._shard_snapshot(entry)
            if snap is not None:
                snapshots.append(snap)
        self.fleet.update(snapshots)

    async def _shard_snapshot(self, entry: dict) -> MetricsSnapshot | None:
        """One worker's snapshot; reconnects once if the control session
        was idle-evicted (worker reapers close silent connections)."""
        index = entry["shard"]
        for _attempt in range(2):
            client = self._shard_clients.get(index)
            try:
                if client is None:
                    client = await ServeClient.connect(
                        entry["host"], entry["port"],
                        "_fleet", f"ctl{index}",
                        metrics=self.fleet.local)
                    self._shard_clients[index] = client
                stats = await client.stats(timeout_s=10.0)
                return MetricsSnapshot.from_dict(stats.get("metrics", {}))
            except (ConnectionError, OSError, TimeoutError,
                    protocol.ProtocolError):
                self._shard_clients.pop(index, None)
                if client is not None:
                    with contextlib.suppress(Exception):
                        client.close()
        return None

    async def stop(self) -> None:
        for client in self._shard_clients.values():
            with contextlib.suppress(Exception):
                client.close()
        self._shard_clients.clear()
        await super().stop()


class ShardCluster:
    """Lifecycle owner for the worker fleet + control front-end.

    ::

        async with ShardCluster(ShardConfig(shards=4)) as cluster:
            listing = cluster.shard_listing      # route data sessions
            control = cluster.control            # merged stats/telemetry
            await cluster.migrate("acme", "dev3", to_shard=2)
    """

    def __init__(self, config: ShardConfig | None = None) -> None:
        self.config = config if config is not None else ShardConfig()
        self._processes: list[multiprocessing.Process] = []
        self.shard_listing: list[dict] = []
        self.control: FleetControlServer | None = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        config = self.config
        ctx = multiprocessing.get_context()
        pipes = []
        for index in range(config.shards):
            parent_end, child_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(index, config.host, config.serve,
                      config.telemetry_interval_s, child_end),
                daemon=True, name=f"airfinger-shard-{index}")
            proc.start()
            child_end.close()
            pipes.append((index, parent_end))
            self._processes.append(proc)
        self.shard_listing = []
        deadline = time.monotonic() + config.start_timeout_s
        for index, pipe in pipes:
            entry = await self._await_report(index, pipe, deadline)
            self.shard_listing.append(entry)
        self.control = FleetControlServer(
            self.shard_listing, host=config.host,
            port=config.control_port, config=config.serve,
            telemetry_interval_s=config.telemetry_interval_s)
        await self.control.start()

    async def _await_report(self, index: int, pipe, deadline: float) -> dict:
        while True:
            if pipe.poll(0):
                entry = pipe.recv()
                pipe.close()
                return entry
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"shard {index} never reported its port "
                    f"(alive={self._processes[index].is_alive()})")
            await asyncio.sleep(0.02)

    async def stop(self) -> None:
        if self.control is not None:
            await self.control.stop()
            self.control = None
        for proc in self._processes:
            if proc.is_alive():
                proc.terminate()
        for proc in self._processes:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
        self._processes.clear()

    async def __aenter__(self) -> "ShardCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    def shard_of(self, tenant: str) -> dict:
        """The listing entry owning *tenant* under hash routing."""
        return self.shard_listing[
            shard_for_tenant(tenant, len(self.shard_listing))]

    async def migrate(self, tenant: str, session: str, to_shard: int,
                      from_shard: int | None = None) -> dict:
        """Move one live session between workers; returns the payload.

        Checkpoints (capture + detach, closing the device connection)
        on the source worker and restores on the destination — streaming
        state, queued frames and counters all survive, so the device
        reconnects to the new shard and the event stream continues with
        zero lost events.
        """
        if from_shard is None:
            from_shard = shard_for_tenant(tenant, len(self.shard_listing))
        src = self.shard_listing[from_shard]
        dst = self.shard_listing[to_shard]
        ctl = await ServeClient.connect(src["host"], src["port"],
                                        "_fleet", "migrate-src")
        try:
            state = await ctl.checkpoint(tenant, session)
        finally:
            with contextlib.suppress(Exception):
                await ctl.bye(timeout_s=5.0)
        ctl = await ServeClient.connect(dst["host"], dst["port"],
                                        "_fleet", "migrate-dst")
        try:
            await ctl.restore(state)
        finally:
            with contextlib.suppress(Exception):
                await ctl.bye(timeout_s=5.0)
        return state
