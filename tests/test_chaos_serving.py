"""Chaos-injected serving: failover end to end through the read path.

An :class:`EmbeddingServer` over a shard router of
:class:`ReplicaGroup` children is driven by the open-loop generator
while a :class:`ChaosInjector` kills, slows and revives replicas
mid-run.  The acceptance invariant: with
replication factor 2, killing a replica with requests in flight loses
zero requests, and the telemetry attributes latencies to before/after
phases so the failover's cost is measurable.  The report's
``replication`` block reads the same counters the groups keep, over one
bare group or a router of them.
"""

from __future__ import annotations

import pytest

from repro.core.embedding import EmbeddingTables
from repro.device import SimClock, SSDModel
from repro.errors import ConfigError
from repro.kv import ReplicaGroup, ShardedKVStore
from repro.kv.faster import FasterKV
from repro.kv.common.serialization import encode_vector
from repro.obs.trace import install_tracer, uninstall_tracer
from repro.serve import (
    BatchPolicy,
    ChaosInjector,
    EmbeddingServer,
    LoadGenerator,
    ServingLoop,
)

_ITEMS = 800
_DIM = 8
_RATE = 2e5
_SEED = 3


def build_server(tmp_path, replication: int = 2, cache_entries: int = 0, shards: int = 2):
    """A server over a router of ``shards`` replica groups (``shards=0``:
    over one bare group), preloaded with ``_ITEMS`` vectors."""
    clock = SimClock()
    ssd = SSDModel(clock)

    def group(shard):
        return ReplicaGroup([
            FasterKV(
                str(tmp_path / f"s{shard}r{replica}"), ssd=ssd, memory_budget_bytes=1 << 21
            )
            for replica in range(replication)
        ])

    store = ShardedKVStore(group, shards) if shards else group(0)
    tables = EmbeddingTables(store, _DIM, seed=_SEED, cache_entries=0)
    keys = list(range(_ITEMS))
    store.multi_put(keys, [encode_vector(tables.init_vector(key)) for key in keys])
    return EmbeddingServer(store, dim=_DIM, seed=_SEED, cache_entries=cache_entries)


def drive(server, chaos=None, count: int = 1200):
    arrivals = LoadGenerator(_ITEMS, "zipfian", seed=_SEED).open_loop(
        rate=_RATE, count=count, start=server.clock.now
    )
    loop = ServingLoop(
        server, BatchPolicy(max_batch=64, max_delay=50e-6), chaos=chaos
    )
    loop.run(arrivals)
    return loop.report(1e-3), arrivals


class TestKillFailover:
    def test_kill_mid_run_loses_zero_requests(self, tmp_path):
        server = build_server(tmp_path)
        count = 1200
        midpoint = server.clock.now + 0.5 * count / _RATE
        chaos = ChaosInjector().kill_replica_at(midpoint, shard=0, replica=0)
        report, arrivals = drive(server, chaos=chaos, count=count)

        assert report["requests"] == count
        assert len(arrivals.issued) == count
        assert all(request.value is not None for request in arrivals.issued)
        assert [event["label"] for event in report["chaos_events"]] == ["kill:0/0"]
        # Phase segmentation: requests served after the kill are
        # attributed to the post-failover regime, with its own p99.
        phases = report["phases"]
        assert phases["steady"]["count"] > 0
        assert phases["after:kill:0/0"]["count"] > 0
        assert phases["after:kill:0/0"]["p99"] > 0
        assert report["replication"]["failovers"] > 0
        server.close()

    def test_revive_with_catch_up_restores_full_routing(self, tmp_path):
        server = build_server(tmp_path)
        count = 1500
        start = server.clock.now
        span = count / _RATE
        chaos = (
            ChaosInjector()
            .kill_replica_at(start + span / 3, shard=0, replica=0)
            .revive_replica_at(start + 2 * span / 3, shard=0, replica=0)
        )
        report, arrivals = drive(server, chaos=chaos, count=count)
        assert report["requests"] == count
        assert len(arrivals.issued) == count
        assert all(request.value is not None for request in arrivals.issued)
        store = server.store
        assert store.shards[0].hints_outstanding(0) == 0
        assert store.stats.extra["catchup_keys"] >= 0
        assert len(report["chaos_events"]) == 2
        server.close()

    def test_event_before_first_completion_still_reports_phases(self, tmp_path):
        """A kill firing before any request completes leaves a single
        phase — the breakdown must still be reported, not dropped."""
        server = build_server(tmp_path)
        chaos = ChaosInjector().kill_replica_at(0.0, shard=0, replica=0)
        report, _ = drive(server, chaos=chaos, count=300)
        assert len(report["chaos_events"]) == 1
        assert "phases" in report
        assert report["phases"]["after:kill:0/0"]["count"] == 300
        server.close()

    def test_events_beyond_the_run_report_as_unfired(self, tmp_path):
        """An event the run never reaches must be visible in the report —
        a chaos run whose fault never fired measured nothing."""
        server = build_server(tmp_path)
        far_future = server.clock.now + 1e6
        chaos = ChaosInjector().kill_replica_at(far_future, shard=0, replica=0)
        report, _ = drive(server, chaos=chaos, count=300)
        assert report["chaos_events"] == []
        assert report["chaos_events_unfired"] == 1
        server.close()

    def test_fired_events_carry_schedule_and_fire_times(self, tmp_path):
        server = build_server(tmp_path)
        start = server.clock.now
        chaos = ChaosInjector().kill_replica_at(start, shard=1, replica=1)
        report, _ = drive(server, chaos=chaos, count=300)
        event = report["chaos_events"][0]
        assert event["scheduled_at"] == start
        assert event["fired_at"] >= start
        server.close()


class TestSlowShard:
    def test_slow_replica_is_routed_around(self, tmp_path):
        server = build_server(tmp_path)
        count = 1200
        start = server.clock.now
        span = count / _RATE
        # A 10 ms per-read penalty would blow the 1 ms SLO 10x over if
        # the router kept sending reads to the degraded replica.
        chaos = ChaosInjector().slow_shard(
            start + span / 3, shard=0, penalty_seconds=10e-3, replica=0
        )
        report, _ = drive(server, chaos=chaos, count=count)
        assert report["requests"] == count
        post = report["phases"]["after:slow:0/0"]
        assert post["p99"] < 10e-3, "router kept reading the slowed replica"
        assert report["replication"]["failovers"] > 0
        server.close()

    def test_heal_scheduling_validated(self):
        chaos = ChaosInjector()
        with pytest.raises(ConfigError):
            chaos.slow_shard(1.0, shard=0, penalty_seconds=1e-3, until=0.5)
        with pytest.raises(ConfigError):
            chaos.kill_replica_at(-1.0, shard=0, replica=0)

    def test_slow_then_heal_fires_both_events(self, tmp_path):
        server = build_server(tmp_path)
        count = 1500
        start = server.clock.now
        span = count / _RATE
        chaos = ChaosInjector().slow_shard(
            start + span / 4, shard=0, penalty_seconds=5e-3,
            replica=0, until=start + span / 2,
        )
        report, _ = drive(server, chaos=chaos, count=count)
        labels = [event["label"] for event in report["chaos_events"]]
        assert labels == ["slow:0/0", "heal:0/0"]
        assert "after:heal:0/0" in report["phases"]
        server.close()


class TestChaosContract:
    def test_incapable_store_raises_at_fire_time(self, tmp_path, ssd):
        """A router of plain engines has no replica group to fault, and a
        bare group has no shards; scheduling against either must fail
        loudly at fire time."""
        store = ShardedKVStore(
            lambda index: FasterKV(str(tmp_path / f"plain{index}"), ssd=ssd), 2
        )
        chaos = ChaosInjector().kill_replica_at(0.0, shard=0, replica=0)
        with pytest.raises(ConfigError):
            chaos.fire_due(now=1.0, store=store)
        store.close()
        group = ReplicaGroup([FasterKV(str(tmp_path / f"r{index}"), ssd=ssd) for index in (0, 1)])
        chaos = ChaosInjector().slow_shard(0.0, shard=0, penalty_seconds=1e-3)
        with pytest.raises(ConfigError):
            chaos.fire_due(now=1.0, store=group)
        group.close()

    def test_events_fire_in_time_order(self, tmp_path, ssd):
        fired = []

        class Group:
            clock = None

            def __init__(self, shard):
                self.shard = shard

            def fail(self, replica):
                fired.append(("kill", self.shard, replica))

            def slow(self, replica, penalty):
                fired.append(("slow", self.shard, replica))

        class Probe:
            shards = [Group(0), Group(1)]

        chaos = (
            ChaosInjector()
            .slow_shard(2.0, shard=1, penalty_seconds=1e-3)
            .kill_replica_at(1.0, shard=0, replica=1)
        )
        assert chaos.peek_time() == 1.0
        assert chaos.fire_due(now=0.5, store=Probe()) == 0
        assert chaos.fire_due(now=3.0, store=Probe()) == 2
        assert fired == [("kill", 0, 1), ("slow", 1, 0)]
        assert chaos.pending() == 0

    def test_replica_events_record_instants_where_they_fire(self, tmp_path):
        server = build_server(tmp_path)
        store = server.store
        chaos = (
            ChaosInjector()
            .kill_replica_at(1.0, shard=1, replica=0)
            .slow_shard(1.0, shard=0, penalty_seconds=1e-6)
            .revive_replica_at(2.0, shard=1, replica=0)
        )
        store.put(next(key for key in range(_ITEMS) if store.shard_of(key) == 1), b"hint")
        tracer = install_tracer()
        try:
            chaos.fire_due(now=1.0, store=store)
            store.put(next(key for key in range(_ITEMS) if store.shard_of(key) == 1), b"late")
            chaos.fire_due(now=2.0, store=store)
        finally:
            uninstall_tracer()
        instants = [(event.name, event.args) for event in tracer.instants]
        assert instants == [
            ("chaos.fail_replica", {"shard": 1, "replica": 0}),
            ("chaos.revive_replica", {"shard": 1, "replica": 0, "replayed": 1}),
        ]
        assert store.shards[1].alive == [True, True]
        assert store.shards[0].slow_penalty(0) == 1e-6
        server.close()


def _expected_replication(groups) -> dict:
    """The replication block a report must show: the groups' own counts."""
    return {
        "failovers": sum(group.failovers for group in groups),
        "catchup_keys": sum(group.catchup_keys for group in groups),
        "hints_outstanding": [
            group.hints_outstanding(replica) for group in groups for replica in range(group.replication)
        ],
    }


def _degrade(group, keys) -> None:
    """Give a 3-replica group every health counter: a hinted catch-up of
    ``keys``, a dead replica owing them as hints, and both live replicas
    slowed, so the least-slowed one (2) serves every read and pays."""
    values = group.snapshot_read_many(keys)
    group.fail(2)
    group.multi_put(keys, values)
    group.revive(2)  # replays the hinted keys
    group.fail(1)
    group.multi_put(keys, values)  # replica 1 now owes len(keys) hints
    group.slow(0, 2e-3)
    group.slow(2, 1e-6)


class TestReplicationReport:
    """``report()["replication"]`` over both replicated shapes."""

    def test_report_over_a_bare_group(self, tmp_path):
        server = build_server(tmp_path, replication=3, shards=0)
        group = server.store
        _degrade(group, list(range(0, _ITEMS, 7)))
        gets = [replica.stats.gets for replica in group.replicas]
        report, arrivals = drive(server, count=600)
        assert all(request.value is not None for request in arrivals.issued)
        replication = report["replication"]
        assert replication == _expected_replication([group])
        assert replication["catchup_keys"] > 0
        assert replication["hints_outstanding"] == [0, len(range(0, _ITEMS, 7)), 0]
        assert replication["failovers"] > 0
        served = [replica.stats.gets - before for replica, before in zip(group.replicas, gets)]
        assert served[0] == served[1] == 0 < served[2]
        assert server.clock.busy_seconds("chaos") > 0
        server.close()

    def test_report_over_a_router_of_groups_after_a_kill(self, tmp_path):
        server = build_server(tmp_path, replication=3)
        store = server.store
        _degrade(store.shards[0], [key for key in range(_ITEMS) if store.shard_of(key) == 0][:40])
        slowest_gets = store.shards[0].replicas[0].stats.gets
        count = 900
        midpoint = server.clock.now + 0.5 * count / _RATE
        chaos = ChaosInjector().kill_replica_at(midpoint, shard=1, replica=0)
        report, arrivals = drive(server, chaos=chaos, count=count)
        assert all(request.value is not None for request in arrivals.issued)
        assert [event["label"] for event in report["chaos_events"]] == ["kill:1/0"]
        replication = report["replication"]
        assert replication == _expected_replication(store.shards)
        assert store.shards[1].failovers > 0  # the kill's reroutes are counted
        assert replication["catchup_keys"] == 40
        assert replication["hints_outstanding"] == [0, 40, 0] + [0, 0, 0] * (store.num_shards - 1)
        assert store.shards[0].replicas[0].stats.gets == slowest_gets  # routed around
        server.close()
