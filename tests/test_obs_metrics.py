"""The read-only metrics registry (repro.obs.registry).

The registry holds readers, not values: ``attach`` takes a callable, the
exports call it at export time and flatten whatever it returns with one
generic walk.  Covered here: an exported value is never stale, every
number the stack's real stats objects contain comes out with no
per-source code (a bare engine, the router, an RF-2 replicated store, an
SLO report with phases, a two-tenant loop report), both export formats,
and the escaping of free-form label values.
"""

from __future__ import annotations

import dataclasses
import json
from numbers import Real

import pytest

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.device import SimClock, SSDModel
from repro.kv import ReplicaGroup, ShardedKVStore, StoreStats
from repro.kv.common.serialization import encode_vector
from repro.kv.faster import FasterKV
from repro.obs import MetricsRegistry
from repro.serve import (
    BatchPolicy,
    ChaosInjector,
    EmbeddingServer,
    LoadGenerator,
    ServingLoop,
    TenantSpec,
    namespace_key,
)

DIM = 8


def numbers_in(value) -> list[float]:
    """Every number inside a stats object, found without the registry."""
    if isinstance(value, Real):
        return [float(value)]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [number for item in value for number in numbers_in(item)]
    return []


def assert_exports_every_number(read) -> dict:
    """Attach ``read`` and check both exports carry each of its numbers."""
    registry = MetricsRegistry()
    registry.attach("c", read)
    tree = registry.to_json()["c"]
    expected = sorted(numbers_in(read()))
    assert expected, "the source holds no numbers"
    assert sorted(float(number) for number in tree.values()) == expected
    json.dumps(tree)  # serializable as it is
    lines = [
        line for line in registry.to_prometheus().splitlines()
        if not line.startswith("#")
    ]
    assert sorted(float(line.rsplit(" ", 1)[1]) for line in lines) == expected
    return tree


def faster(directory, ssd) -> FasterKV:
    return FasterKV(str(directory), ssd=ssd, memory_budget_bytes=1 << 16)


def load(store, count: int = 200) -> list[int]:
    keys = list(range(count))
    store.multi_put(keys, [bytes([key % 251]) * 12 for key in keys])
    store.multi_get(keys[: count // 2] + [10_000])
    return keys


# ----------------------------------------------------------------------
# attach: readers, read at export time
# ----------------------------------------------------------------------
class TestAttach:
    def test_a_value_mutated_after_attach_is_what_the_export_reports(self):
        stats = StoreStats()
        registry = MetricsRegistry()
        registry.attach("kv", lambda: stats)
        assert registry.to_json()["kv"]["gets"] == 0
        stats.gets, stats.hits = 10, 7
        stats.extra["shard_ops"] = [4, 6]
        tree = registry.to_json()["kv"]
        assert tree["gets"] == 10 and tree["hits"] == 7
        assert tree["extra_shard_ops{index=1}"] == 6
        assert "repro_kv_gets 10.0" in registry.to_prometheus()

    def test_a_read_that_raises_propagates(self):
        registry = MetricsRegistry()
        registry.attach("kv", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            registry.to_json()
        with pytest.raises(ZeroDivisionError):
            registry.to_prometheus()

    def test_labels_ride_on_every_number_of_the_source(self):
        registry = MetricsRegistry()
        registry.attach("serve", lambda: {"admitted": 4, "latency": {"p99": 2e-3}}, tenant="gold")
        registry.attach("serve", lambda: {"admitted": 9, "latency": {"p99": 5e-3}}, tenant="bronze")
        tree = registry.to_json()["serve"]
        assert tree["admitted{tenant=gold}"] == 4
        assert tree["latency_p99{tenant=bronze}"] == 5e-3
        # One TYPE line per metric, its samples adjacent (exposition format).
        lines = registry.to_prometheus().splitlines()
        at = lines.index("# TYPE repro_serve_admitted gauge")
        assert lines[at + 1 : at + 3] == [
            'repro_serve_admitted{tenant="bronze"} 9.0',
            'repro_serve_admitted{tenant="gold"} 4.0',
        ]
        assert lines.count("# TYPE repro_serve_admitted gauge") == 1

    def test_what_is_not_a_number_is_skipped(self):
        registry = MetricsRegistry()
        registry.attach("x", lambda: {"name": "mlkv", "none": None, "flag": True, "n": 3})
        assert registry.to_json() == {"x": {"flag": True, "n": 3}}
        assert MetricsRegistry().to_json() == {}
        assert MetricsRegistry().to_prometheus() == ""

    def test_nested_lists_extend_the_index_label(self):
        registry = MetricsRegistry()
        registry.attach("kv", lambda: {"lag": [[0, 3], [1, 0]]})
        tree = registry.to_json()["kv"]
        assert tree["lag{index=0.1}"] == 3 and tree["lag{index=1.0}"] == 1
        assert 'repro_kv_lag{index="0.1"} 3.0' in registry.to_prometheus()


# ----------------------------------------------------------------------
# the stack's own stats objects, no per-source code
# ----------------------------------------------------------------------
class TestRealSources:
    def test_store_stats_of_a_bare_engine(self, tmp_path):
        store = faster(tmp_path / "f", SSDModel(SimClock()))
        load(store)
        tree = assert_exports_every_number(lambda: store.stats)
        assert tree["gets"] == 101 and tree["puts"] == 200
        assert tree["hits"] + tree["misses"] == tree["gets"]
        store.close()

    def test_mlkv_stats_carry_the_look_ahead_thrash(self, tmp_path):
        """Staging more than the buffer holds: the staged records pushed
        out of memory before any Get read them come out as a number."""
        store = MLKV(str(tmp_path / "m"), ssd=SSDModel(SimClock()),
                     memory_budget_bytes=1 << 13, page_bytes=1 << 12)
        keys = load(store, 1000)
        store.lookahead(keys[:600])
        tree = assert_exports_every_number(lambda: store.mlkv_stats)
        assert tree["lookahead_copied"] == store.mlkv_stats.lookahead_copied > 0
        assert tree["lookahead_evicted_unread"] == store.mlkv_stats.lookahead_evicted_unread > 0
        store.close()

    def test_store_stats_of_the_router_label_shard_ops_by_index(self, tmp_path):
        ssd = SSDModel(SimClock())
        store = ShardedKVStore(lambda shard: faster(tmp_path / f"s{shard}", ssd), 3)
        load(store)
        tree = assert_exports_every_number(lambda: store.stats)
        shard_ops = store.stats.extra["shard_ops"]
        assert [tree[f"extra_shard_ops{{index={i}}}"] for i in range(3)] == shard_ops
        store.close()

    def test_store_stats_of_a_replicated_store(self, tmp_path):
        ssd = SSDModel(SimClock())
        store = replicated(tmp_path, ssd)
        keys = load(store)
        store.shards[0].fail(1)
        store.multi_put(keys, [b"v2" * 6] * len(keys))  # hinted for the dead replica
        store.multi_get(keys)
        tree = assert_exports_every_number(lambda: store.stats)
        extra = store.stats.extra
        assert tree["extra_failovers"] == extra["failovers"]
        # One vector per health field, shard 0's replicas first.
        assert tree["extra_hints_outstanding{index=1}"] == extra["hints_outstanding"][1] > 0
        store.close()

    def test_slo_report_with_phases(self, tmp_path):
        server = make_server(tmp_path / "s", replicated_store=True)
        arrivals = LoadGenerator(300, "zipfian", seed=5).open_loop(
            rate=2e5, count=400, start=server.clock.now
        )
        midpoint = server.clock.now + 0.5 * 400 / 2e5
        chaos = ChaosInjector().kill_replica_at(midpoint, shard=0, replica=0)
        loop = ServingLoop(server, BatchPolicy(max_batch=32, max_delay=50e-6), chaos=chaos)
        telemetry = loop.run(arrivals)
        tree = assert_exports_every_number(lambda: telemetry.slo_report(1e-3, server))
        assert tree["requests"] == 400
        assert tree["phases_after:kill:0/0_count"] + tree["phases_steady_count"] == 400
        assert tree["replication_failovers"] >= 1
        server.close()

    def test_a_two_tenant_loop_report(self, tmp_path):
        server = make_server(tmp_path / "s", tenant_count=2)
        loop = ServingLoop(server, BatchPolicy(max_batch=32, max_delay=50e-6))
        gen = LoadGenerator(300, "zipfian", seed=5)
        start = server.clock.now
        loop.add_tenant(TenantSpec("gold", target_p99=1e-3),
                        gen.open_loop(rate=1e5, count=300, start=start))
        loop.add_tenant(TenantSpec("flood", target_p99=1e-2, rate_limit=1e5, burst=16,
                                   shed_depth=64),
                        gen.open_loop(rate=2e6, count=900, start=start))
        loop.run()
        tree = assert_exports_every_number(lambda: loop.report())
        report = loop.report()
        for tenant in ("gold", "flood"):
            block = report["tenants"][tenant]
            assert tree[f"tenants_{tenant}_admitted"] == block["admitted"]
            assert tree[f"tenants_{tenant}_latency_p99"] == block["latency"]["p99"]
        assert tree["tenants_flood_shed_rate"] > 0
        server.close()


def replicated(directory, ssd) -> ShardedKVStore:
    """A router of two RF=2 replica groups of FASTER replicas."""
    return ShardedKVStore(
        lambda shard: ReplicaGroup(
            [faster(directory / f"s{shard}r{replica}", ssd) for replica in range(2)]
        ),
        num_shards=2,
    )


def make_server(directory, tenant_count: int = 1, replicated_store: bool = False) -> EmbeddingServer:
    ssd = SSDModel(SimClock())
    if replicated_store:
        store = replicated(directory, ssd)
    else:
        store = MLKV(str(directory), ssd=ssd, memory_budget_bytes=1 << 21)
    tables = EmbeddingTables(store, DIM, seed=3, cache_entries=0)
    keys = [namespace_key(tenant, key) for tenant in range(tenant_count) for key in range(300)]
    store.multi_put(keys, [encode_vector(tables.init_vector(key)) for key in keys])
    store.clock.drain()
    return EmbeddingServer(store, dim=DIM, seed=3, cache_entries=0)


# ----------------------------------------------------------------------
# export formats
# ----------------------------------------------------------------------
class TestExport:
    def test_prometheus_sanitizes_metric_names(self):
        registry = MetricsRegistry()
        registry.attach("kv.shard-0", lambda: {"after:kill:0/0": {"count": 1}})
        text = registry.to_prometheus()
        assert "# TYPE repro_kv_shard_0_after_kill_0_0_count gauge" in text
        assert "repro_kv_shard_0_after_kill_0_0_count 1.0" in text

    def test_prometheus_escapes_free_form_label_values(self):
        """``TenantSpec.name`` is unvalidated; a quote, a backslash or a
        line break in it must not break out of the label."""
        name = 'ads"eu\\1\nx'
        registry = MetricsRegistry()
        registry.attach("serve", lambda: {"admitted": 4, "shard_ops": [1, 2]},
                        tenant=TenantSpec(name).name)
        lines = registry.to_prometheus().splitlines()
        assert 'repro_serve_admitted{tenant="ads\\"eu\\\\1\\nx"} 4.0' in lines
        assert 'repro_serve_shard_ops{index="1",tenant="ads\\"eu\\\\1\\nx"} 2.0' in lines
        # Five lines: two TYPE comments and three samples — no stray break.
        assert len(lines) == 5
        assert all(line.startswith(("#", "repro_serve_")) for line in lines)
