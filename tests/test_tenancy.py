"""Multi-tenant serving: namespacing, admission, priority, slow replicas, autoscale.

The acceptance surface of tenants on the one
:class:`~repro.serve.ServingLoop`:

* the implicit tenant ``run(arrivals)`` serves and one registered
  tenant are the same thing (identical reports, bit for bit);
* key namespacing keeps tenants' records disjoint while sharing one
  batched read path;
* admission control sheds (counted, completed back to the source) with
  the zero-lost invariant ``completed + shed == offered``;
* priority-aware cutoff keeps a high-SLO tenant's p99 tight under a
  best-effort flood;
* read routing keeps a slowed replica out of the tail while a faster
  peer exists, and pays the least penalty when none does;
* the autoscaler splits a hot shard *while requests are in flight*
  without losing a request or a key, and does nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.data.arrivals import FlashCrowdProcess, PoissonProcess, ThinkTimeProcess
from repro.device import SimClock, SSDModel
from repro.errors import ConfigError
from repro.kv import ReplicaGroup, ShardedKVStore, encode_vector
from repro.kv.faster import FasterKV
from repro.serve import (
    Autoscaler,
    AutoscalerConfig,
    BatchPolicy,
    ClosedLoopArrivals,
    EmbeddingServer,
    LoadGenerator,
    Request,
    RequestQueue,
    ServingLoop,
    TenantSpec,
    TokenBucket,
    namespace_key,
    split_key,
)

DIM = 8


def make_server(directory, item_count=500, seed=3, cache_entries=0,
                tenant_count=1):
    """An MLKV-backed server preloaded for ``tenant_count`` namespaces."""
    store = MLKV(str(directory), ssd=SSDModel(SimClock()),
                 memory_budget_bytes=1 << 21)
    tables = EmbeddingTables(store, DIM, seed=seed, cache_entries=0)
    for tenant in range(tenant_count):
        keys = [namespace_key(tenant, k) for k in range(item_count)]
        store.multi_put(keys, [encode_vector(tables.init_vector(k)) for k in keys])
    store.clock.drain()
    return EmbeddingServer(store, dim=DIM, seed=seed, cache_entries=cache_entries)


# ----------------------------------------------------------------------
# namespacing
# ----------------------------------------------------------------------
class TestNamespacing:
    def test_roundtrip_and_identity_for_tenant_zero(self):
        assert namespace_key(0, 12345) == 12345
        for tenant, key in [(0, 0), (1, 0), (3, 7), (100, (1 << 48) - 1)]:
            assert split_key(namespace_key(tenant, key)) == (tenant, key)

    def test_ranges_are_disjoint(self):
        assert namespace_key(1, 0) > namespace_key(0, (1 << 48) - 1)
        assert namespace_key(2, 0) > namespace_key(1, (1 << 48) - 1)

    def test_local_key_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            namespace_key(1, 1 << 48)
        with pytest.raises(ConfigError):
            namespace_key(0, -1)


# ----------------------------------------------------------------------
# admission primitives
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=3, start=0.0)
        assert [bucket.admit(0.0) for _ in range(4)] == [True, True, True, False]
        # 0.1 s at 10 tokens/s refills exactly one token.
        assert bucket.admit(0.1) is True
        assert bucket.admit(0.1) is False

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2, start=0.0)
        for _ in range(2):
            bucket.admit(0.0)
        assert [bucket.admit(100.0) for _ in range(3)] == [True, True, False]

    def test_validation(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ConfigError):
            TokenBucket(rate=1.0, burst=0)


class TestPriorityQueue:
    def test_drains_highest_priority_first_fifo_within(self):
        queue = RequestQueue()
        for index, priority in enumerate([0, 2, 0, 1, 2]):
            queue.extend([Request(key=index, arrival_time=float(index))], priority)
        assert [r.key for r in queue.take(5)] == [1, 4, 3, 0, 2]
        assert len(queue) == 0

    def test_iteration_spans_lanes(self):
        """The batch cutoff is a minimum over *every* waiter."""
        queue = RequestQueue()
        queue.extend([Request(key=1, arrival_time=5.0)], priority=2)
        queue.extend([Request(key=2, arrival_time=1.0), Request(key=3, arrival_time=2.0)])
        assert sorted(r.key for r in queue) == [1, 2, 3]
        assert min(queue, key=lambda r: r.arrival_time).key == 2

    def test_single_lane_is_plain_fifo(self):
        queue = RequestQueue()
        queue.extend([Request(key=index, arrival_time=float(index)) for index in range(5)])
        assert [r.key for r in queue.take(3)] == [0, 1, 2]
        assert queue.max_depth_seen == 5


class TestSpecValidation:
    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            TenantSpec("t", target_p99=0.0)
        with pytest.raises(ConfigError):
            TenantSpec("t", max_delay=-1.0)
        with pytest.raises(ConfigError):
            TenantSpec("t", rate_limit=0.0)
        with pytest.raises(ConfigError):
            TenantSpec("t", burst=0)
        with pytest.raises(ConfigError):
            TenantSpec("t", shed_depth=0)


# ----------------------------------------------------------------------
# the cluster
# ----------------------------------------------------------------------
class TestPassThrough:
    def test_implicit_tenant_equals_one_registered_tenant(self, tmp_path):
        """``run(arrivals)`` *is* the one-tenant case: same report as
        registering the source as the only tenant, field for field."""
        policy = BatchPolicy(max_batch=64, max_delay=100e-6)

        single = make_server(tmp_path / "single", item_count=300, cache_entries=256)
        arrivals = LoadGenerator(300, "zipfian", seed=7).open_loop(
            rate=4e5, count=1500, start=single.clock.now
        )
        loop = ServingLoop(single, policy)
        loop.run(arrivals)
        reference = loop.report(1e-3)

        multi = make_server(tmp_path / "multi", item_count=300, cache_entries=256)
        arrivals = LoadGenerator(300, "zipfian", seed=7).open_loop(
            rate=4e5, count=1500, start=multi.clock.now
        )
        cluster = ServingLoop(multi, policy)
        cluster.add_tenant(TenantSpec("only"), arrivals)
        cluster.run()
        report = cluster.report()

        for field in ("requests", "batches", "throughput_rps",
                      "coalesced_fraction", "queue_high_water"):
            assert report[field] == reference[field]
        assert report["latency"] == reference["latency"]
        assert report["batch_size"] == reference["batch_size"]
        assert report["queue_depth"] == reference["queue_depth"]
        assert report["tenants"]["only"]["latency"] == reference["latency"]
        # The whole loop-wide block, not a sample of it; the tenant's own
        # block differs only in name and in the batch-shape fields (batches
        # are cross-tenant, so only the loop-wide telemetry records them).
        implicit = reference.pop("tenants")["default"]
        only = report.pop("tenants")["only"]
        assert report == reference
        for field in ("requests", "throughput_rps", "latency", "slo_met", "offered",
                      "admitted", "shed_rate", "shed_queue", "slo_attainment"):
            assert only[field] == implicit[field]
        single.store.close()
        multi.store.close()


class TestAdmissionControl:
    def test_shedding_counts_and_zero_lost_accounting(self, tmp_path):
        server = make_server(tmp_path / "s", item_count=200, tenant_count=2)
        cluster = ServingLoop(server, BatchPolicy(max_batch=32, max_delay=50e-6))
        start = server.clock.now
        gen = LoadGenerator(200, "zipfian", seed=5)
        steady = cluster.add_tenant(
            TenantSpec("steady", target_p99=1e-3),
            gen.open_loop_process(PoissonProcess(1e5, seed=1, start=start), 800),
        )
        # A 2M rps flood against a 1e5 rps bucket: most of it is shed.
        flood = cluster.add_tenant(
            TenantSpec("flood", target_p99=1e-2, rate_limit=1e5, burst=16,
                       shed_depth=64),
            gen.open_loop_process(PoissonProcess(2e6, seed=2, start=start), 3000),
        )
        telemetry = cluster.run()
        assert flood.shed_rate > 0
        assert steady.shed == 0
        # Zero lost: every offered request was either served or shed.
        assert telemetry.requests_completed + steady.shed + flood.shed == (
            steady.offered + flood.offered
        ) == 3800
        report = cluster.report()
        block = report["tenants"]["flood"]
        assert block["offered"] == 3000
        assert block["admitted"] + block["shed_rate"] + block["shed_queue"] == 3000
        server.store.close()

    def test_shed_closed_loop_tenant_keeps_issuing(self, tmp_path):
        """Shedding completes the request back, so the loop never wedges."""
        server = make_server(tmp_path / "s", item_count=100)
        cluster = ServingLoop(server, BatchPolicy(max_batch=16, max_delay=20e-6))
        arrivals = LoadGenerator(100, "zipfian", seed=4).closed_loop(
            users=8, think_seconds=1e-6, count=400, start=server.clock.now
        )
        tenant = cluster.add_tenant(
            TenantSpec("cl", rate_limit=1e5, burst=4), arrivals
        )
        cluster.run()  # terminates: every one of the 400 issues resolves
        assert tenant.offered == 400
        assert tenant.shed_rate > 0
        assert tenant.admitted + tenant.shed == 400
        server.store.close()

    def test_duplicate_tenant_name_and_empty_cluster_rejected(self, tmp_path):
        server = make_server(tmp_path / "s", item_count=50)
        cluster = ServingLoop(server)
        with pytest.raises(ConfigError):
            cluster.run()
        arrivals = LoadGenerator(50, "uniform", seed=1).open_loop(
            rate=1e5, count=10, start=server.clock.now
        )
        cluster.add_tenant(TenantSpec("a"), arrivals)
        with pytest.raises(ConfigError):
            cluster.add_tenant(TenantSpec("a"), arrivals)
        assert cluster.tenant("a").spec.name == "a"
        with pytest.raises(ConfigError):
            cluster.tenant("missing")
        server.store.close()

    def test_source_gets_back_the_keys_it_issued(self, tmp_path):
        """Served or shed, ``on_complete`` hands a tenant's source its own
        tenant-local key — never the namespaced one the store saw."""

        class Recording(ClosedLoopArrivals):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                self.issued, self.returned = [], []

            def pop_due(self, until, limit=None):
                run = super().pop_due(until, limit)
                self.issued.extend((request, request.key) for request in run)
                return run

            def on_complete(self, request, now):
                self.returned.append((request, request.key))
                super().on_complete(request, now)

        server = make_server(tmp_path / "s", item_count=100, tenant_count=2)
        loop = ServingLoop(server, BatchPolicy(max_batch=16, max_delay=20e-6))
        start = server.clock.now
        loop.add_tenant(
            TenantSpec("zero"),
            LoadGenerator(100, "uniform", seed=1).open_loop(
                rate=1e5, count=50, start=start),
        )
        source = Recording(
            8, LoadGenerator(100, "zipfian", seed=4).chooser(),
            ThinkTimeProcess(1e-6, seed=2), total_requests=400, start=start,
        )
        tenant = loop.add_tenant(TenantSpec("one", rate_limit=1e5, burst=4), source)
        loop.run()
        assert tenant.shed_rate > 0 and tenant.admitted > 0
        assert len(source.returned) == 400
        issued = {id(request): key for request, key in source.issued}
        served = 0
        for request, key in source.returned:
            assert key == issued[id(request)] < 100
            if request.value is not None:  # served: tenant 1's record, not tenant 0's
                served += 1
                expected = server.tables.init_vector(namespace_key(1, key))
                assert (request.value == expected).all()
        assert served == tenant.admitted
        server.store.close()

    def test_prefetcher_serves_one_tenant_only(self, tmp_path):
        server = make_server(tmp_path / "s", item_count=50)
        loop = ServingLoop(server, prefetch_distance=2)
        arrivals = LoadGenerator(50, "uniform", seed=1).open_loop(
            rate=1e5, count=10, start=server.clock.now
        )
        loop.add_tenant(TenantSpec("a"), arrivals)
        with pytest.raises(ConfigError):
            loop.add_tenant(TenantSpec("b"), arrivals)
        server.store.close()

    def test_implicit_and_registered_tenants_do_not_mix(self, tmp_path):
        server = make_server(tmp_path / "s", item_count=50)
        gen = LoadGenerator(50, "uniform", seed=1)
        implicit = ServingLoop(server)
        implicit.run(gen.open_loop(rate=1e5, count=10, start=server.clock.now))
        with pytest.raises(ConfigError):
            implicit.add_tenant(TenantSpec("late"), gen.open_loop(rate=1e5, count=10))
        registered = ServingLoop(server)
        registered.add_tenant(TenantSpec("a"), gen.open_loop(rate=1e5, count=10))
        with pytest.raises(ConfigError):
            registered.run(gen.open_loop(rate=1e5, count=10))
        server.store.close()


class TestPriorityIsolation:
    def test_high_slo_tenant_preempts_batch_cutoff(self, tmp_path):
        """Gold's tight delay bound must hold against a best-effort flood."""
        server = make_server(tmp_path / "s", item_count=300, tenant_count=2,
                             cache_entries=256)
        start = server.clock.now
        cluster = ServingLoop(server, BatchPolicy(max_batch=64, max_delay=400e-6))
        gen = LoadGenerator(300, "zipfian", seed=9)
        gold = cluster.add_tenant(
            TenantSpec("gold", target_p99=200e-6, priority=2, max_delay=20e-6),
            gen.open_loop_process(PoissonProcess(5e4, seed=1, start=start), 400),
        )
        cluster.add_tenant(
            TenantSpec("bulk", target_p99=5e-3, priority=0),
            gen.open_loop_process(PoissonProcess(4e5, seed=2, start=start), 3000),
        )
        cluster.run()
        report = cluster.report()
        gold_p99 = report["tenants"]["gold"]["latency"]["p99"]
        bulk_p99 = report["tenants"]["bulk"]["latency"]["p99"]
        # Without the per-waiter cutoff gold would ride the 400 µs batch
        # delay; with it, gold's p99 stays well under it and under bulk's.
        assert gold_p99 < 200e-6
        assert gold_p99 < bulk_p99
        assert report["tenants"]["gold"]["slo_attainment"] > 0.95
        assert gold.shed == 0
        server.store.close()


# ----------------------------------------------------------------------
# slow replicas
# ----------------------------------------------------------------------
def make_replicated_server(tmp_path, item_count=200, replication=2):
    ssd = SSDModel(SimClock())
    store = ShardedKVStore(
        lambda shard: ReplicaGroup(
            [FasterKV(str(tmp_path / f"s{shard}r{replica}"), ssd=ssd)
             for replica in range(replication)]
        ),
        num_shards=2,
    )
    tables = EmbeddingTables(store, DIM, seed=3, cache_entries=0)
    keys = list(range(item_count))
    store.multi_put(keys, [encode_vector(tables.init_vector(k)) for k in keys])
    store.clock.drain()
    return store, EmbeddingServer(store, dim=DIM, seed=3, cache_entries=0)


def serve_uniform(server, count):
    """Serve ``count`` uniform open-loop requests; the loop's report."""
    cluster = ServingLoop(server, BatchPolicy(max_batch=16, max_delay=50e-6))
    arrivals = LoadGenerator(200, "uniform", seed=6).open_loop(
        rate=2e5, count=count, start=server.clock.now
    )
    cluster.add_tenant(TenantSpec("t", target_p99=1e-2), arrivals)
    cluster.run()
    return cluster.report()


class TestSlowReplicas:
    def test_slowed_replica_is_routed_around(self, tmp_path):
        """One replica per group slowed, its peer healthy: every read goes
        to the peer, so the penalty never lands on the clock."""
        store, server = make_replicated_server(tmp_path)
        heavy = 5e-3
        for group in store.shards:
            group.slow(0, heavy)
        report = serve_uniform(server, 600)
        assert report["latency"]["p99"] < heavy
        assert report["replication"]["failovers"] > 0
        assert store.clock.busy_seconds("chaos") == 0.0
        for group in store.shards:
            assert group.replicas[0].stats.gets == 0 < group.replicas[1].stats.gets
        server.store.close()

    def test_equally_slowed_replicas_pay_the_penalty(self, tmp_path):
        """With every replica equally heavy there is nowhere to route
        around, and the degradation shows up in the tail — honestly."""
        store, server = make_replicated_server(tmp_path)
        heavy = 5e-3
        for group in store.shards:
            for replica in range(2):
                group.slow(replica, heavy)
        report = serve_uniform(server, 300)
        assert report["latency"]["p99"] > heavy
        server.store.close()

    def test_least_slowed_replica_serves_and_is_charged(self, tmp_path):
        """Both replicas slowed: the least-slowed one serves every read,
        and each routed read pays its penalty on the shared clock."""
        store, server = make_replicated_server(tmp_path)
        heavy, light = 5e-3, 30e-6
        for shard in range(store.num_shards):
            store.shards[shard].slow(0, heavy)
            store.shards[shard].slow(1, light)
        report = serve_uniform(server, 600)
        assert report["latency"]["p99"] < heavy
        reads = store.clock.busy_seconds("chaos") / light
        assert reads >= 2 and reads == pytest.approx(round(reads))
        for group in store.shards:
            assert group.replicas[0].stats.gets == 0 < group.replicas[1].stats.gets
        server.store.close()


# ----------------------------------------------------------------------
# autoscaler
# ----------------------------------------------------------------------
class TestAutoscaler:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AutoscalerConfig(check_interval=0.0)
        with pytest.raises(ConfigError):
            AutoscalerConfig(cooldown=-1.0)
        with pytest.raises(ConfigError):
            AutoscalerConfig(copy_batch=0)
        with pytest.raises(ConfigError):
            AutoscalerConfig(max_shards=0)

    def test_needs_a_router(self, tmp_path):
        """A bare engine has no split surface: say so at construction,
        not at the first decision."""
        store = MLKV(str(tmp_path / "bare"), ssd=SSDModel(SimClock()))
        with pytest.raises(ConfigError):
            Autoscaler(store, lambda index: store)
        store.close()

    def test_split_under_live_load_loses_nothing(self, tmp_path):
        """The tentpole invariant: a split fires mid-run, every request
        completes, and every key still reads back from the right engine."""
        clock = SimClock()
        ssd = SSDModel(clock)
        built = []

        def factory(index):
            built.append(index)
            return MLKV(str(tmp_path / f"shard{index}-{len(built)}"),
                        ssd=ssd, memory_budget_bytes=1 << 21)

        store = ShardedKVStore(factory, 2)
        tables = EmbeddingTables(store, DIM, seed=7, cache_entries=0)
        items = 800
        keys = list(range(items))
        store.multi_put(keys, [encode_vector(tables.init_vector(k)) for k in keys])
        store.clock.drain()
        server = EmbeddingServer(store, dim=DIM, seed=7, cache_entries=0)

        autoscaler = Autoscaler(
            store, factory,
            AutoscalerConfig(p99_threshold=50e-6, check_interval=0.5e-3,
                             min_window=32, max_shards=4, copy_batch=64),
            telemetry=server.telemetry,
        )
        cluster = ServingLoop(
            server, BatchPolicy(max_batch=32, max_delay=60e-6),
            autoscaler=autoscaler,
        )
        start = server.clock.now
        arrivals = LoadGenerator(items, "zipfian", seed=7).open_loop_process(
            FlashCrowdProcess(1e5, 1.5e6, flash_at=start + 1e-3,
                              flash_duration=6e-3, seed=2, start=start),
            5000,
        )
        tenant = cluster.add_tenant(TenantSpec("t", target_p99=5e-3), arrivals)
        telemetry = cluster.run()

        assert autoscaler.splits_completed >= 1
        assert store.num_shards >= 3
        actions = [d["action"] for d in autoscaler.decisions]
        assert "split_begin" in actions and "split_cutover" in actions
        # Zero lost: nothing shed (no admission limits), all served.
        assert telemetry.requests_completed == tenant.offered == 5000
        # Rescale phases were recorded for p99-during-rescale reporting.
        report = cluster.report()
        assert "rescale:split" in report["phases"]
        # Every key still resolves through the post-split routing.
        for key in range(0, items, 37):
            assert store.get(key) is not None
        store.close()

    def test_hot_window_at_max_shards_changes_nothing(self, tmp_path):
        """At ``max_shards`` a hot window records no decision: a dead
        replica stays dead, because splitting is the one rescale."""
        store, _server = make_replicated_server(tmp_path, replication=2)
        store.shards[0].fail(1)
        autoscaler = Autoscaler(
            store,
            lambda index: pytest.fail("no split may start at max_shards"),
            AutoscalerConfig(p99_threshold=100e-6, check_interval=1e-3,
                             min_window=8, cooldown=0.0, max_shards=2),
        )
        for tick in range(3):
            autoscaler.observe_requests(np.full(16, 5e-3))
            autoscaler.tick(tick * 2e-3)
        assert store.shards[0].alive == [True, False]
        assert store.num_shards == 2
        assert autoscaler.summary() == {
            "decisions": [], "splits_completed": 0, "rescaling": False,
        }
        store.close()

    def test_cooldown_and_min_window_gate_splits(self, tmp_path):
        store, _server = make_replicated_server(tmp_path, replication=2)
        built = []

        def factory(index):
            built.append(index)
            return ReplicaGroup([
                FasterKV(str(tmp_path / f"n{len(built)}s{index}r{replica}"), ssd=store.ssd)
                for replica in range(2)
            ])

        autoscaler = Autoscaler(
            store, factory,
            AutoscalerConfig(p99_threshold=100e-6, check_interval=1e-3,
                             min_window=32, cooldown=1.0, copy_batch=1024),
        )
        # Too few samples: no split even though the window is hot.
        autoscaler.observe_requests(np.full(8, 5e-3))
        autoscaler.tick(0.0)
        assert not autoscaler.rescaling and built == []
        # Enough samples → one split starts and cuts over on the next tick.
        autoscaler.observe_requests(np.full(64, 5e-3))
        autoscaler.tick(2e-3)
        assert autoscaler.rescaling and built == [2]
        autoscaler.tick(2.5e-3)
        assert autoscaler.splits_completed == 1 and store.num_shards == 3
        while store.cleanup_pending():
            autoscaler.tick(3e-3)
        # Hot again, but inside the 1 s cooldown since the cutover.
        autoscaler.observe_requests(np.full(64, 5e-3))
        autoscaler.tick(6e-3)
        assert not autoscaler.rescaling and built == [2]
        assert [d["action"] for d in autoscaler.decisions] == ["split_begin", "split_cutover"]
        # Past the cooldown the same window splits again.
        autoscaler.observe_requests(np.full(64, 5e-3))
        autoscaler.tick(1.1)
        assert autoscaler.rescaling and built == [2, 3]
        store.close()
