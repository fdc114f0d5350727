"""The online serving subsystem: batching, coalescing, SLOs, restore parity.

Covers the `repro.serve` package end to end — micro-batcher policy and
duplicate-key coalescing, the admission cache's tiers and reuse limit,
telemetry percentiles, open/closed-loop load generation over the
simulated clock, read-only freezing and snapshot reads at the kv layer,
MLKV's staleness bound under pure read traffic, and exact score parity
between a training process and a server restored from its cloud epoch.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bench.harness import build_stack
from repro.core.checkpoint import CloudCheckpointer
from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.core.staleness import ASP_BOUND
from repro.data import CTRDataset, PoissonProcess, ThinkTimeProcess
from repro.device import SimClock, SSDModel
from repro.errors import ConfigError, ServingError, StorageError
from repro.kv import ShardedKVStore
from repro.kv.btree import BTreeKV
from repro.kv.common.serialization import encode_vector
from repro.kv.faster import FasterKV
from repro.kv.lsm import LsmKV
from repro.models import FFNN
from repro.nn.tensor import Tensor
from repro.serve import (
    AdmissionCache,
    BatchPolicy,
    Distribution,
    EmbeddingServer,
    LatencyHistogram,
    LoadGenerator,
    MicroBatcher,
    Request,
    RequestQueue,
    ServingLoop,
)
from repro.train import DLRMTrainer, TrainerConfig

DIM = 8


def make_serving_store(directory, item_count=500, staleness_bound=ASP_BOUND,
                       memory_budget_bytes=1 << 22, seed=3):
    """An MLKV store preloaded with deterministic vectors for serving."""
    store = MLKV(str(directory), ssd=SSDModel(SimClock()),
                 staleness_bound=staleness_bound,
                 memory_budget_bytes=memory_budget_bytes)
    tables = EmbeddingTables(store, DIM, seed=seed, cache_entries=0)
    keys = list(range(item_count))
    store.multi_put(keys, [encode_vector(tables.init_vector(k)) for k in keys])
    store.clock.drain()
    return store


# ----------------------------------------------------------------------
# batcher & queue
# ----------------------------------------------------------------------
class TestBatcher:
    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ConfigError):
            BatchPolicy(max_delay=-1.0)

    def test_queue_is_fifo_and_tracks_depth(self):
        queue = RequestQueue()
        queue.extend([Request(key=i, arrival_time=float(i)) for i in range(5)])
        assert queue.max_depth_seen == 5
        assert [r.key for r in queue.take(3)] == [0, 1, 2]
        assert len(queue) == 2
        assert [r.key for r in queue] == [3, 4]

    def test_duplicate_keys_coalesce_into_one_read(self):
        queue = RequestQueue()
        queue.extend([Request(key=key, arrival_time=0.0) for key in [7, 7, 3, 7, 3, 9]])
        batcher = MicroBatcher(BatchPolicy(max_batch=16, max_delay=0.0))
        batch = batcher.form(queue)
        assert batch.size == 6
        assert batch.unique_keys == [7, 3, 9]
        assert batch.slots == [0, 0, 1, 0, 1, 2]
        assert [batch.slots.count(slot) for slot in range(3)] == [3, 2, 1]
        assert batch.coalesced == 3
        assert batcher.requests_coalesced == 3

    def test_batch_respects_max_batch(self):
        queue = RequestQueue()
        queue.extend([Request(key=i, arrival_time=0.0) for i in range(10)])
        batch = MicroBatcher(BatchPolicy(max_batch=4, max_delay=0.0)).form(queue)
        assert batch.size == 4
        assert len(queue) == 6


# ----------------------------------------------------------------------
# admission cache
# ----------------------------------------------------------------------
class TestAdmissionCache:
    def test_reuse_limit_expires_entries(self):
        cache = AdmissionCache(capacity=8, reuse_limit=2)
        cache.admit_many([1], [np.ones(4)])
        assert cache.lookup_many([1])[0] is not None
        assert cache.lookup_many([1])[0] is not None  # second serve expires it
        assert cache.lookup_many([1]) == [None]
        assert cache.tiers.cache_expirations == 1
        assert cache.tiers.cache_hits == 2

    def test_unlimited_reuse(self):
        cache = AdmissionCache(capacity=8, reuse_limit=None)
        cache.admit_many([1], [np.ones(4)])
        for _ in range(50):
            assert cache.lookup_many([1])[0] is not None

    def test_zero_capacity_disables(self):
        cache = AdmissionCache(capacity=0)
        cache.admit_many([1], [np.ones(4)])
        assert cache.lookup_many([1]) == [None]

    def test_tier_ratios_sum_to_one(self):
        cache = AdmissionCache(capacity=8)
        cache.tiers.cache_hits = 6
        cache.tiers.store_memory_hits = 3
        cache.tiers.store_disk_reads = 1
        ratios = cache.tiers.ratios()
        assert ratios["cache"] == pytest.approx(0.6)
        assert sum(ratios.values()) == pytest.approx(1.0)

    def test_invalid_reuse_limit(self):
        with pytest.raises(ConfigError):
            AdmissionCache(capacity=8, reuse_limit=0)


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_histogram_percentiles_bound_exact_values(self):
        hist = LatencyHistogram()
        values = [i * 1e-6 for i in range(1, 101)]  # 1..100 µs
        for value in values:
            hist.record(value)
        # Log buckets give upper bounds with ~4.6% relative error.
        assert hist.percentile(50) == pytest.approx(50e-6, rel=0.1)
        assert hist.percentile(99) == pytest.approx(99e-6, rel=0.1)
        assert hist.percentile(100) == pytest.approx(100e-6, rel=0.1)
        assert hist.percentile(50) >= 50e-6  # upper bound, never optimistic
        assert hist.mean == pytest.approx(50.5e-6)
        assert hist.count == 100

    def test_histogram_handles_extremes(self):
        hist = LatencyHistogram()
        hist.record(0.0)        # underflow bucket
        hist.record(1000.0)     # overflow bucket -> exact max
        assert hist.percentile(100) == 1000.0
        assert hist.count == 2
        with pytest.raises(ValueError):
            hist.record(-1.0)

    def test_histogram_empty_and_single_sample(self):
        # Regression: p=0 used to hit rank 0 and report the histogram
        # floor; a single sample used to report its bucket's upper edge
        # (up to 4.6% above the only latency ever seen).
        empty = LatencyHistogram()
        assert empty.percentile(0) == 0.0
        assert empty.percentile(99) == 0.0
        single = LatencyHistogram()
        single.record(5e-4)
        for p in (0, 50, 99, 100):
            assert single.percentile(p) == 5e-4
        many = LatencyHistogram()
        for value in (1e-6, 2e-6, 3e-6):
            many.record(value)
        assert many.percentile(0) <= many.percentile(100)
        assert many.percentile(0) >= 1e-6 * 0.9
        assert many.percentile(100) <= many.max_seen

    def test_histogram_merge_matches_combined_recording(self):
        left, right, combined = (
            LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        )
        left_values = [i * 1e-6 for i in range(1, 51)]
        right_values = [i * 1e-5 for i in range(1, 51)]
        for value in left_values:
            left.record(value)
            combined.record(value)
        for value in right_values:
            right.record(value)
            combined.record(value)
        merged = left.merge(right)
        assert merged is left  # chains in place
        assert left.count == combined.count
        assert left.total == pytest.approx(combined.total)
        assert left.max_seen == combined.max_seen
        for p in (0, 50, 95, 99, 100):
            assert left.percentile(p) == combined.percentile(p)

    def test_histogram_merge_rejects_mismatched_geometry(self):
        base = LatencyHistogram()
        with pytest.raises(ValueError):
            base.merge(LatencyHistogram(min_latency=1e-6))
        with pytest.raises(ValueError):
            base.merge(LatencyHistogram(buckets_per_decade=10))
        with pytest.raises(TypeError):
            base.merge(Distribution())

    def test_distribution_summary(self):
        dist = Distribution()
        for value in [1, 1, 2, 8]:
            dist.record(value)
        assert dist.mean == pytest.approx(3.0)
        assert dist.percentile(50) == pytest.approx(1.0)
        assert dist.percentile(75) == pytest.approx(2.0)
        assert dist.max_seen == 8

    def test_distribution_integer_values_are_exact(self):
        # Regression: all-size-1 batches must report p50 == 1, not the
        # bucket's upper edge (2).
        dist = Distribution()
        for _ in range(10):
            dist.record(1)
        assert dist.percentile(50) == 1.0
        assert dist.percentile(99) == 1.0


# ----------------------------------------------------------------------
# arrival processes & load generation
# ----------------------------------------------------------------------
class TestLoadGeneration:
    def test_poisson_times_ascend_at_roughly_the_rate(self):
        times = PoissonProcess(rate=1000.0, seed=1).times(5000)
        assert np.all(np.diff(times) > 0)
        assert times[-1] == pytest.approx(5.0, rel=0.2)  # 5000 @ 1k/s

    def test_poisson_is_deterministic_under_seed(self):
        a = PoissonProcess(rate=100.0, seed=7).times(100)
        b = PoissonProcess(rate=100.0, seed=7).times(100)
        assert np.array_equal(a, b)

    def test_think_time_zero_mean(self):
        think = ThinkTimeProcess(0.0, seed=1)
        assert think.sample() == 0.0

    def test_open_loop_trace_replays_identically(self):
        gen = LoadGenerator(100, "zipfian", seed=5)
        a = gen.open_loop(rate=1e5, count=200)
        b = LoadGenerator(100, "zipfian", seed=5).open_loop(rate=1e5, count=200)
        assert a.keys.tolist() == b.keys.tolist()
        assert a.times.tolist() == b.times.tolist()

    def test_open_loop_key_schedule_chunks_cover_trace(self):
        gen = LoadGenerator(100, "uniform", seed=5)
        arrivals = gen.open_loop(rate=1e5, count=100)
        schedule = arrivals.key_schedule(32)
        assert sum(len(chunk) for chunk in schedule) == 100

    def test_closed_loop_issues_exactly_count_requests(self, tmp_path):
        store = make_serving_store(tmp_path / "cl", item_count=100)
        server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=64)
        arrivals = LoadGenerator(100, "zipfian", seed=5).closed_loop(
            users=8, think_seconds=20e-6, count=500, start=store.clock.now
        )
        telemetry = ServingLoop(server, BatchPolicy(16, 10e-6)).run(arrivals)
        assert telemetry.requests_completed == 500
        store.close()


# ----------------------------------------------------------------------
# kv-layer serving support: snapshot reads + freeze
# ----------------------------------------------------------------------
ENGINE_FACTORIES = {
    "faster": lambda d: FasterKV(str(d), ssd=SSDModel(SimClock())),
    "mlkv": lambda d: MLKV(str(d), ssd=SSDModel(SimClock())),
    "lsm": lambda d: LsmKV(str(d), ssd=SSDModel(SimClock())),
    "btree": lambda d: BTreeKV(str(d), ssd=SSDModel(SimClock())),
}


class TestSnapshotAndFreeze:
    @pytest.mark.parametrize("kind", sorted(ENGINE_FACTORIES))
    def test_snapshot_read_matches_committed_state(self, kind, tmp_path):
        store = ENGINE_FACTORIES[kind](tmp_path / kind)
        store.multi_put([1, 2], [b"a", b"b"])
        assert store.snapshot_read(1) == b"a"
        assert store.snapshot_read_many([2, 1, 99]) == [b"b", b"a", None]
        store.close()

    @pytest.mark.parametrize("kind", sorted(ENGINE_FACTORIES))
    def test_frozen_store_rejects_writes_serves_reads(self, kind, tmp_path):
        store = ENGINE_FACTORIES[kind](tmp_path / kind)
        store.put(1, b"a")
        store.freeze()
        assert store.get(1) == b"a"
        assert store.snapshot_read_many([1]) == [b"a"]
        with pytest.raises(StorageError):
            store.put(2, b"b")
        with pytest.raises(StorageError):
            store.multi_put([2], [b"b"])
        with pytest.raises(StorageError):
            store.delete(1)
        store.close()

    def test_mlkv_snapshot_read_performs_no_admission(self, tmp_path):
        store = MLKV(str(tmp_path / "m"), ssd=SSDModel(SimClock()),
                     staleness_bound=4)
        store.put(1, b"a")
        before = store.staleness_of(1)
        for _ in range(20):
            assert store.snapshot_read(1) == b"a"
        assert store.staleness_of(1) == before
        store.close()

    def test_sharded_freeze_and_snapshot_fan_out(self, tmp_path):
        store = ShardedKVStore(
            lambda i: FasterKV(str(tmp_path / f"s{i}")), num_shards=3
        )
        keys = list(range(60))
        store.multi_put(keys, [bytes([k]) for k in keys])
        assert store.snapshot_read_many(keys) == [bytes([k]) for k in keys]
        assert store.snapshot_read(5) == bytes([5])
        store.freeze()
        assert all(child.read_only for child in store.shards)
        with pytest.raises(StorageError):
            store.put(1, b"x")
        with pytest.raises(StorageError):
            store.multi_put([1], [b"x"])
        store.close()


# ----------------------------------------------------------------------
# the serving loop
# ----------------------------------------------------------------------
class TestServingLoop:
    def test_all_requests_complete_with_correct_values(self, tmp_path):
        store = make_serving_store(tmp_path / "s", item_count=200)
        server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=128)
        gen = LoadGenerator(200, "zipfian", seed=9)
        arrivals = gen.open_loop(rate=1e6, count=1000, start=store.clock.now)
        expected = set(arrivals.keys.tolist())
        loop = ServingLoop(server, BatchPolicy(64, 50e-6))
        telemetry = loop.run(arrivals)
        assert telemetry.requests_completed == 1000
        tables = EmbeddingTables(store, DIM, seed=3, cache_entries=0)
        for request in arrivals.issued[:50]:
            assert np.array_equal(request.value, tables.init_vector(request.key))
        assert expected  # sanity: the trace was non-empty
        store.close()

    def test_latencies_are_monotone_nonnegative(self, tmp_path):
        store = make_serving_store(tmp_path / "s", item_count=100)
        server = EmbeddingServer(store, dim=DIM, seed=3)
        arrivals = LoadGenerator(100, "uniform", seed=2).open_loop(
            rate=5e5, count=500, start=store.clock.now
        )
        ServingLoop(server, BatchPolicy(32, 20e-6)).run(arrivals)
        assert len(arrivals.issued) == 500
        for request in arrivals.issued:
            assert request.completed_at >= request.arrival_time
        store.close()

    def test_batched_beats_per_request_on_simulated_clock(self, tmp_path):
        def throughput(policy, cache_entries, sub):
            store = make_serving_store(tmp_path / sub, item_count=500)
            server = EmbeddingServer(store, dim=DIM, seed=3,
                                     cache_entries=cache_entries)
            arrivals = LoadGenerator(500, "zipfian", seed=11).open_loop(
                rate=5e6, count=3000, start=store.clock.now
            )
            telemetry = ServingLoop(server, policy).run(arrivals)
            result = telemetry.throughput()
            store.close()
            return result

        per_request = throughput(BatchPolicy(1, 0.0), 0, "per")
        batched = throughput(BatchPolicy(128, 50e-6), 256, "batch")
        assert batched > 2.0 * per_request

    def test_coalescing_shares_one_read_among_hot_waiters(self, tmp_path):
        store = make_serving_store(tmp_path / "s", item_count=10)
        server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=0)
        # Every request hits the same key, all arriving at once.
        now = store.clock.now
        from repro.serve.loadgen import OpenLoopArrivals

        gets_before = store.stats.gets
        loop = ServingLoop(server, BatchPolicy(32, 0.0))
        loop.run(OpenLoopArrivals([now] * 32, [4] * 32))
        # One coalesced batch -> one store read serves all 32 waiters.
        assert store.stats.gets - gets_before == 1
        assert loop.batcher.requests_coalesced == 31
        store.close()

    def test_prefetcher_stages_future_batches(self, tmp_path):
        # Tiny buffer (2 x 4 KiB pages) so most records are disk-resident;
        # the serving prefetcher (the training look-ahead engine) stages
        # them ahead at background sequential cost.
        store = MLKV(str(tmp_path / "s"), ssd=SSDModel(SimClock()),
                     memory_budget_bytes=1 << 13, page_bytes=1 << 12)
        tables = EmbeddingTables(store, DIM, seed=3, cache_entries=0)
        keys = list(range(400))
        store.multi_put(keys, [encode_vector(tables.init_vector(k)) for k in keys])
        store.clock.drain()
        server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=0)
        arrivals = LoadGenerator(400, "uniform", seed=4).open_loop(
            rate=2e5, count=600, start=store.clock.now
        )
        loop = ServingLoop(server, BatchPolicy(64, 100e-6), prefetch_distance=2)
        loop.run(arrivals)
        assert store.mlkv_stats.lookahead_requests > 0
        assert store.mlkv_stats.lookahead_copied > 0
        store.close()

    def test_report_carries_slo_and_store_counters(self, tmp_path):
        store = make_serving_store(tmp_path / "s", item_count=100)
        server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=64)
        arrivals = LoadGenerator(100, "zipfian", seed=3).open_loop(
            rate=1e6, count=800, start=store.clock.now
        )
        loop = ServingLoop(server, BatchPolicy(64, 50e-6))
        loop.run(arrivals)
        report = loop.report(target_p99=1e-3)
        assert report["requests"] == 800
        assert report["slo_met"] is True
        assert 0.0 <= report["coalesced_fraction"] < 1.0
        assert report["tiers"]["cache"] > 0
        total = report["store"]["hits"] + report["store"]["misses"]
        assert report["store"]["hit_ratio"] == pytest.approx(
            report["store"]["hits"] / total
        )
        store.close()


# ----------------------------------------------------------------------
# staleness bound under pure read traffic
# ----------------------------------------------------------------------
class TestBoundedServing:
    def test_staleness_bound_respected_with_refreshes(self, tmp_path):
        bound = 2
        store = make_serving_store(tmp_path / "s", item_count=50,
                                   staleness_bound=bound)
        server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=0)
        assert server.read_mode == "bounded"
        hot = 7
        for _ in range(25):
            server.lookup([hot])
            # A Get leaves staleness at most bound + 1 (its own admission).
            assert store.staleness_of(hot) <= bound + 1
        assert server.telemetry.refreshes > 0
        assert store.mlkv_stats.stall_events > 0
        store.close()

    def test_coalescing_reduces_refresh_pressure(self, tmp_path):
        def refreshes(policy):
            store = make_serving_store(tmp_path / f"r{policy.max_batch}",
                                       item_count=20, staleness_bound=2)
            server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=0)
            now = store.clock.now
            from repro.serve.loadgen import OpenLoopArrivals

            ServingLoop(server, policy).run(OpenLoopArrivals([now] * 64, [3] * 64))
            count = server.telemetry.refreshes
            store.close()
            return count

        per_request = refreshes(BatchPolicy(1, 0.0))
        coalesced = refreshes(BatchPolicy(64, 0.0))
        # 64 per-key admissions vs 1 shared admission for the whole burst.
        assert per_request > 10
        assert coalesced == 0

    def test_refresh_reads_not_double_counted_in_tiers(self, tmp_path):
        """Regression: the stall handler's snapshot reads fire inside
        _fetch's measurement window; tier totals must still equal the
        number of keys actually served."""
        store = make_serving_store(tmp_path / "s", item_count=10,
                                   staleness_bound=1)
        server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=0)
        for _ in range(6):
            server.lookup([4])
        assert server.telemetry.refreshes > 0
        assert server.cache.tiers.total == 6
        store.close()

    def test_absent_keys_count_as_lazy_init_not_disk(self, tmp_path):
        store = make_serving_store(tmp_path / "s", item_count=4)
        server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=0)
        server.lookup([100, 101, 1])  # 100/101 never inserted
        tiers = server.cache.tiers
        assert tiers.lazy_inits == 2
        assert tiers.store_disk_reads == 0
        assert tiers.store_memory_hits == 1
        assert tiers.total == 3
        store.close()

    def test_delay_timer_anchors_on_oldest_waiter(self, tmp_path):
        """Regression: a waiter carried past its deadline while the
        server was busy must be served immediately at batch open, not
        held for a fresh max_delay."""
        store = make_serving_store(tmp_path / "s", item_count=10)
        server = EmbeddingServer(store, dim=DIM, seed=3)
        loop = ServingLoop(server, BatchPolicy(max_batch=4, max_delay=2e-6))
        clock = store.clock
        clock.advance(10e-6, component="wait")
        now = clock.now

        # Overdue waiter (arrived 5 us ago > 2 us delay): serve now.
        loop.queue.extend([Request(key=1, arrival_time=now - 5e-6)])
        assert loop._gather(clock, now) == now
        loop.queue.take(4)
        # Fresh waiter (arrived 1 us ago): timer runs out its remainder.
        loop.queue.extend([Request(key=1, arrival_time=now - 1e-6)])
        assert loop._gather(clock, now) == pytest.approx(now + 1e-6)
        store.close()

    def test_bounded_reuse_limit_defaults_to_bound(self, tmp_path):
        store = make_serving_store(tmp_path / "s", item_count=10,
                                   staleness_bound=3)
        server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=16)
        assert server.cache.reuse_limit == 3
        store.close()

    @pytest.mark.parametrize("bound, read_mode, reuse_limit", [
        (0, "bounded", 1),  # BSP still lets a cached row serve one read
        (ASP_BOUND, "bounded", None),  # no finite bound, no limit
        (3, "snapshot", None),  # snapshot reads never age out
    ])
    def test_reuse_limit_follows_a_finite_bound(self, tmp_path, bound, read_mode, reuse_limit):
        store = make_serving_store(tmp_path / "s", item_count=10, staleness_bound=bound)
        server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=16, read_mode=read_mode)
        assert server.cache.reuse_limit == reuse_limit
        store.close()

    def test_bounded_mode_rejected_without_bound(self, tmp_path):
        store = FasterKV(str(tmp_path / "f"), ssd=SSDModel(SimClock()))
        with pytest.raises(ConfigError):
            EmbeddingServer(store, dim=DIM, read_mode="bounded")
        store.close()


# ----------------------------------------------------------------------
# checkpoint -> restore -> serve parity
# ----------------------------------------------------------------------
class TestRestoreParity:
    @pytest.fixture
    def trained(self, tmp_path):
        stack = build_stack("mlkv", dim=DIM, memory_budget_bytes=1 << 22,
                            staleness_bound=8,
                            workdir=str(tmp_path / "train"))
        dataset = CTRDataset(num_fields=3, field_cardinality=150,
                             num_dense=4, seed=0)
        network = FFNN(num_dense=dataset.num_dense,
                       num_fields=dataset.num_fields, emb_dim=DIM,
                       rng=np.random.default_rng(0))
        trainer = DLRMTrainer(stack.tables, network,
                              stack.gpu, TrainerConfig(batch_size=32), dataset)
        trainer.run(dataset.batches(12, 32))
        cloud = str(tmp_path / "cloud")
        checkpointer = CloudCheckpointer(stack.store, cloud)
        trainer.export_servable()
        trainer.checkpoint(checkpointer)
        yield stack, dataset, network, cloud, tmp_path
        stack.close()

    def test_servable_rides_the_epoch(self, trained):
        stack, _, _, cloud, tmp_path = trained
        client = CloudCheckpointer(None, cloud)
        restore_dir = str(tmp_path / "probe")
        client.restore_to(restore_dir)
        assert os.path.exists(os.path.join(restore_dir, "servable.model.pkl"))
        assert os.path.exists(os.path.join(restore_dir, "trainer.state.pkl"))

    def test_restored_scores_equal_in_process_exactly(self, trained):
        stack, dataset, network, cloud, tmp_path = trained
        batch = dataset.eval_batch(96)
        emb = stack.tables.peek(batch.sparse)
        network.eval()
        reference = network(batch.dense, Tensor(emb)).numpy()

        server = EmbeddingServer.from_checkpoint(
            CloudCheckpointer(None, cloud), str(tmp_path / "serve")
        )
        # The sidecar re-applies the trained store's staleness bound and
        # reads run the bounded admission protocol.
        assert server.read_mode == "bounded"
        assert server.store.staleness_bound == 8
        scores = server.score(batch.dense, batch.sparse)
        assert np.array_equal(reference, scores)
        server.close()

    def test_frozen_snapshot_server_matches_too(self, trained):
        stack, dataset, network, cloud, tmp_path = trained
        batch = dataset.eval_batch(64)
        emb = stack.tables.peek(batch.sparse)
        network.eval()
        reference = network(batch.dense, Tensor(emb)).numpy()

        server = EmbeddingServer.from_checkpoint(
            CloudCheckpointer(None, cloud), str(tmp_path / "frozen"),
            read_only=True,
        )
        assert server.read_mode == "snapshot"
        assert server.store.read_only
        scores = server.score(batch.dense, batch.sparse)
        assert np.array_equal(reference, scores)
        with pytest.raises(StorageError):
            server.store.put(0, b"x")
        server.close()

    def test_lookup_without_network_and_score_guard(self, tmp_path):
        store = make_serving_store(tmp_path / "s", item_count=20)
        server = EmbeddingServer(store, dim=DIM, seed=3)
        assert server.lookup([1, 2]).shape == (2, DIM)
        with pytest.raises(ServingError):
            server.score(np.zeros((1, 2)), np.zeros((1, 2), dtype=np.int64))
        store.close()

    def test_serving_over_sharded_store(self, tmp_path):
        """A sharded MLKV store (shared device/clock) serves end to end:
        bounded reads and aggregated counters."""
        ssd = SSDModel(SimClock())
        store = ShardedKVStore(
            lambda i: MLKV(str(tmp_path / f"s{i}"), ssd=ssd,
                           staleness_bound=4),
            num_shards=4,
        )
        assert store.clock is ssd.clock  # shared-clock property
        tables = EmbeddingTables(store, DIM, seed=5, cache_entries=0)
        keys = list(range(400))
        store.multi_put(
            keys, [encode_vector(tables.init_vector(k)) for k in keys]
        )
        store.clock.drain()
        server = EmbeddingServer(store, dim=DIM, seed=5, cache_entries=128)
        assert server.read_mode == "bounded"
        arrivals = LoadGenerator(400, "zipfian", seed=13).open_loop(
            rate=3e5, count=1200, start=store.clock.now
        )
        loop = ServingLoop(server, BatchPolicy(64, 50e-6))
        loop.run(arrivals)
        report = loop.report(target_p99=1e-3)
        assert report["requests"] == 1200
        assert np.array_equal(server.lookup([10]), tables.peek([10]))
        total = report["store"]["hits"] + report["store"]["misses"]
        assert report["store"]["hit_ratio"] == pytest.approx(
            report["store"]["hits"] / total
        )
        store.close()

    def test_sharded_private_clocks_cannot_serve(self, tmp_path):
        store = ShardedKVStore(
            lambda i: FasterKV(str(tmp_path / f"p{i}"),
                               ssd=SSDModel(SimClock())),
            num_shards=2,
        )
        server = EmbeddingServer(store, dim=DIM)
        with pytest.raises(ServingError):
            server.clock
        store.close()
