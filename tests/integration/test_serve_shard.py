"""Sharded fleet integration: routing, merged observability, migration.

Real multi-process serving on loopback: a :class:`ShardCluster` forks
worker processes (each a full :class:`AirFingerServer` with its own
registry), the parent :class:`FleetControlServer` advertises the shard
listing in its ``hello_ack``, merges per-worker metrics into one
snapshot, and sessions migrate between workers over the checkpoint wire
messages with zero lost events.

Scale is deliberately small here (2 workers, golden-case streams) — the
point is correctness of the fleet plumbing; capacity is measured by
``benchmarks/test_serve_scale.py``.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import AirFinger
from repro.obs import MetricsRegistry, Tracer
from repro.serve import ServeClient, ServeConfig
from repro.serve.shard import ShardCluster, ShardConfig, shard_for_tenant

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from golden.stream_cases import build_stream_cases  # noqa: E402


@pytest.fixture(scope="module")
def stream_cases():
    return build_stream_cases()


def _reference(frames) -> list[str]:
    engine = AirFinger(metrics=MetricsRegistry(), tracer=Tracer(sample=0.0))
    return [repr(e) for e in engine.feed_frames(frames)]


def _cluster_config(shards: int = 2, **kwargs) -> ShardConfig:
    kwargs.setdefault("serve", ServeConfig())
    kwargs.setdefault("telemetry_interval_s", 0.25)
    return ShardConfig(shards=shards, **kwargs)


async def _drive(host: str, port: int, tenant: str, session: str,
                 frames, chunk: int = 64) -> list:
    client = await ServeClient.connect(host, port, tenant, session,
                                       metrics=MetricsRegistry())
    for i in range(0, len(frames), chunk):
        await client.send_frames(frames[i:i + chunk])
        await client.pump()
    return await client.bye()


class TestShardRouting:
    def test_routing_is_deterministic_and_in_range(self):
        for n in (1, 2, 4, 16):
            for tenant in ("acme", "globex", "initech", "器", ""):
                index = shard_for_tenant(tenant, n)
                assert 0 <= index < n
                assert index == shard_for_tenant(tenant, n)

    def test_routing_is_crc32_not_salted_hash(self):
        """Pinned values: routing must be stable across interpreters
        (``hash`` is salted per process and would break these)."""
        import zlib
        for tenant in ("acme", "loadgen-0", "tenant42"):
            assert shard_for_tenant(tenant, 4) == (
                zlib.crc32(tenant.encode()) % 4)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            shard_for_tenant("t", 0)


class TestClusterServing:
    def test_fleet_serves_with_tenant_routing_and_merged_stats(
            self, stream_cases):
        (name_a, frames_a), (name_b, frames_b) = stream_cases[:2]
        # pick tenants that land on DIFFERENT workers of a 2-shard fleet
        tenant_a = next(t for t in (f"t{i}" for i in range(100))
                        if shard_for_tenant(t, 2) == 0)
        tenant_b = next(t for t in (f"t{i}" for i in range(100))
                        if shard_for_tenant(t, 2) == 1)

        async def run():
            async with ShardCluster(_cluster_config()) as cluster:
                listing = cluster.shard_listing
                assert len(listing) == 2
                # the control hello_ack advertises the listing
                probe = await ServeClient.connect(
                    cluster.config.host, cluster.control.port,
                    "probe", "p0", metrics=MetricsRegistry())
                advertised = probe.shards
                events_a, events_b = await asyncio.gather(
                    _drive(*_endpoint(listing, tenant_a),
                           tenant_a, "dev0", frames_a),
                    _drive(*_endpoint(listing, tenant_b),
                           tenant_b, "dev0", frames_b))
                stats = await probe.stats()
                await probe.bye()
                return advertised, events_a, events_b, stats

        def _endpoint(listing, tenant):
            entry = listing[shard_for_tenant(tenant, len(listing))]
            return entry["host"], entry["port"]

        advertised, events_a, events_b, stats = asyncio.run(run())
        assert [s["shard"] for s in advertised] == [0, 1]
        assert [repr(e) for e in events_a] == _reference(frames_a), (
            f"case {name_a!r} diverged through shard 0")
        assert [repr(e) for e in events_b] == _reference(frames_b), (
            f"case {name_b!r} diverged through shard 1")
        # merged snapshot: both workers' counters in ONE view
        counters = stats["metrics"]["counters"]
        key_a = f'serve.frames{{tenant="{tenant_a}"}}'
        key_b = f'serve.frames{{tenant="{tenant_b}"}}'
        assert counters[key_a] == len(frames_a)
        assert counters[key_b] == len(frames_b)
        assert stats["shards"] == advertised

    def test_fleet_telemetry_merges_shard_series(self, stream_cases):
        _, frames = stream_cases[0]
        tenant = next(t for t in (f"w{i}" for i in range(100))
                      if shard_for_tenant(t, 2) == 1)

        async def run():
            async with ShardCluster(_cluster_config()) as cluster:
                entry = cluster.shard_listing[1]
                await _drive(entry["host"], entry["port"],
                             tenant, "dev0", frames)
                watcher = await ServeClient.connect(
                    cluster.config.host, cluster.control.port,
                    "probe", "watch", metrics=MetricsRegistry())
                await watcher.watch()
                tick = await watcher.next_telemetry(timeout_s=30.0)
                await watcher.bye(timeout_s=5.0)
                return tick

        tick = asyncio.run(run())
        # the merged plane saw the worker's frame counter
        key = f'serve.frames{{tenant="{tenant}"}}'
        assert key in tick["sample"]["rates"]


class TestClusterMigration:
    def test_session_migrates_between_workers_mid_stream(
            self, stream_cases):
        _, frames = stream_cases[0]
        cut = len(frames) // 2
        tenant = next(t for t in (f"m{i}" for i in range(100))
                      if shard_for_tenant(t, 2) == 0)

        async def run():
            async with ShardCluster(_cluster_config()) as cluster:
                src = cluster.shard_listing[0]
                dst = cluster.shard_listing[1]
                dev = await ServeClient.connect(
                    src["host"], src["port"], tenant, "dev0",
                    metrics=MetricsRegistry())
                for i in range(0, cut, 64):
                    await dev.send_frames(frames[i:i + 64])
                    await dev.pump()
                # wait for the worker to drain the queue (poll its
                # queue_depth gauge through the wire)
                probe = await ServeClient.connect(
                    src["host"], src["port"], "_fleet", "probe",
                    metrics=MetricsRegistry())
                key = (f'serve.queue_depth{{session="dev0",'
                       f'tenant="{tenant}"}}')
                deadline = asyncio.get_running_loop().time() + 30.0
                while True:
                    gauges = (await probe.stats())["metrics"]["gauges"]
                    if gauges.get(key) == 0:
                        break
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("worker never drained")
                    await asyncio.sleep(0.05)
                await probe.bye(timeout_s=5.0)

                await cluster.migrate(tenant, "dev0", to_shard=1,
                                      from_shard=0)
                # the capture closed the device connection: drain tail
                while await dev._read_some(0.05):
                    pass
                events = list(dev.events)

                dev2 = await ServeClient.connect(
                    dst["host"], dst["port"], tenant, "dev0",
                    metrics=MetricsRegistry())
                for i in range(cut, len(frames), 64):
                    await dev2.send_frames(frames[i:i + 64])
                    await dev2.pump()
                events += await dev2.bye()
                return events

        events = asyncio.run(run())
        assert [repr(e) for e in events] == _reference(frames)

