"""ParallelShardStore: process-parallel fan-out must be a drop-in for
the serial sharded wrapper — same routing, same results, interchangeable
checkpoints, coordinated freeze, and clean fallbacks (serial wrapper
under REPRO_SANITIZE, central rmw for unshippable closures)."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core.mlkv import MLKV
from repro.device import SimClock, SSDModel
from repro.errors import ConfigError, StorageError
from repro.kv import ParallelShardStore, ShardedKVStore, create_sharded_store
from repro.kv.faster import FasterKV
from repro.kv.parallel import fork_available
from repro.kv.sharded import _MANIFEST, partition_positions, shard_hash
from repro.obs.trace import active_tracer, install_tracer, uninstall_tracer

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

NUM_SHARDS = 8
PROCESSES = 2


def make_factory(base):
    def factory(index):
        return MLKV(
            os.path.join(str(base), f"shard{index}"),
            ssd=SSDModel(SimClock()),
            memory_budget_bytes=1 << 16,
        )

    return factory


def _traced_spans(store):
    """Runs in a worker: spans held by its process-wide tracer, if any."""
    tracer = active_tracer()
    return None if tracer is None else len(tracer.spans)


def _double(keys, values):
    """Module-level so it pickles by reference into the workers."""
    return [(value or b"") * 2 for value in values]


@pytest.fixture
def stores(tmp_path):
    serial = ShardedKVStore(make_factory(tmp_path / "serial"), NUM_SHARDS)
    parallel = ParallelShardStore(
        make_factory(tmp_path / "parallel"), NUM_SHARDS, processes=PROCESSES
    )
    yield serial, parallel
    serial.close()
    parallel.close()


def _load_both(serial, parallel, n=1200, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 4000, size=n).tolist()
    values = [bytes([key % 251]) * (4 + key % 7) for key in keys]
    serial.multi_put(keys, values)
    parallel.multi_put(keys, values)
    return keys


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
class TestPartitionPositions:
    def test_vectorized_partition_matches_scalar_hash(self):
        slots = [0, 1, 2, 3, 4, 1, 0, 3]
        keys = list(range(500)) + [2**63, 2**64 - 1]
        got = partition_positions(keys, slots)
        expected: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            expected.setdefault(slots[shard_hash(key) % len(slots)], []).append(
                position
            )
        assert got == expected

    def test_positions_preserve_input_order_per_shard(self):
        positions = partition_positions(list(range(100)), list(range(4)))
        for per_shard in positions.values():
            assert per_shard == sorted(per_shard)

    def test_parallel_routes_like_serial(self, stores):
        serial, parallel = stores
        for key in range(200):
            assert serial.shard_of(key) == parallel.shard_of(key)


# ----------------------------------------------------------------------
# batched + single ops: parallel == serial
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_batched_reads_match(self, stores):
        serial, parallel = stores
        _load_both(serial, parallel)
        probe = list(range(0, 5000, 3))  # hits and misses
        assert parallel.multi_get(probe) == serial.multi_get(probe)
        assert parallel.snapshot_read_many(probe) == serial.snapshot_read_many(
            probe
        )

    def test_single_ops_match(self, stores):
        serial, parallel = stores
        keys = _load_both(serial, parallel)
        for key in keys[:40] + [999_999]:
            assert parallel.get(key) == serial.get(key)
            assert parallel.snapshot_read(key) == serial.snapshot_read(key)
        assert parallel.delete(keys[0]) == serial.delete(keys[0])
        assert parallel.delete(999_999) == serial.delete(999_999) is False
        parallel.put(31337, b"v")
        serial.put(31337, b"v")
        assert parallel.get(31337) == serial.get(31337) == b"v"

    def test_scan_and_len_match(self, stores):
        serial, parallel = stores
        _load_both(serial, parallel)
        assert dict(parallel.scan()) == dict(serial.scan())
        assert len(parallel) == len(serial)

    def test_empty_batches(self, stores):
        _, parallel = stores
        assert parallel.multi_get([]) == []
        parallel.multi_put([], [])
        assert parallel.multi_rmw([], _double) == []

    def test_balance_tracks_routed_ops(self, stores):
        _, parallel = stores
        parallel.multi_put(list(range(100)), [b"x"] * 100)
        assert sum(parallel.balance()) == 100
        assert parallel.imbalance() >= 1.0

    def test_stats_aggregate_worker_counters(self, stores):
        _, parallel = stores
        parallel.multi_put(list(range(50)), [b"x"] * 50)
        parallel.multi_get(list(range(80)))
        stats = parallel.stats
        assert stats.puts == 50
        assert stats.gets == 80
        assert stats.hits == 50
        assert stats.misses == 30

    def test_stats_match_serial_wrapper_exactly(self, stores):
        # Regression: the worker counters must merge into the parent view
        # with the same totals the serial wrapper reports for the same
        # operation stream — per-shard attribution included.
        serial, parallel = stores
        keys = _load_both(serial, parallel)
        probe = list(range(0, 5000, 7))
        serial.multi_get(probe)
        parallel.multi_get(probe)
        serial.snapshot_read_many(keys[:100])
        parallel.snapshot_read_many(keys[:100])
        a, b = serial.stats, parallel.stats
        assert (a.gets, a.puts, a.hits, a.misses) == (
            b.gets, b.puts, b.hits, b.misses,
        )
        assert a.extra["shard_ops"] == b.extra["shard_ops"]

    def test_stats_survive_close(self, stores):
        # Regression: close() used to tear the workers down without
        # fetching their final counters — the stats died with the
        # processes.  A closed store now serves the final merged snapshot.
        _, parallel = stores
        parallel.multi_put(list(range(60)), [b"y"] * 60)
        parallel.multi_get(list(range(90)))
        parallel.close()
        stats = parallel.stats
        assert stats.puts == 60
        assert stats.gets == 90
        assert stats.hits == 60
        assert stats.misses == 30
        assert sum(stats.extra["shard_ops"]) == 150


# ----------------------------------------------------------------------
# read-modify-write: shipped, fallen back, and failure relay
# ----------------------------------------------------------------------
class TestMultiRmw:
    def test_picklable_update_runs_in_workers(self, stores):
        serial, parallel = stores
        keys = _load_both(serial, parallel)
        probe = sorted(set(keys[:60]))
        assert parallel.multi_rmw(probe, _double) == serial.multi_rmw(
            probe, _double
        )
        assert parallel.multi_get(probe) == serial.multi_get(probe)

    def test_closure_update_falls_back_centrally(self, stores):
        serial, parallel = stores
        keys = _load_both(serial, parallel)
        probe = sorted(set(keys[:30]))
        seen = []

        def update(batch_keys, values):  # closes over live state: unshippable
            seen.append(len(batch_keys))
            return [(value or b"") + b"!" for value in values]

        got = parallel.multi_rmw(probe, update)
        assert got == serial.multi_rmw(probe, update)
        assert sum(seen) == 2 * len(probe)  # ran centrally on both stores

    def test_worker_exception_is_relayed_and_pipes_stay_usable(self, stores):
        _, parallel = stores
        parallel.multi_put(list(range(40)), [b"x"] * 40)
        with pytest.raises(ZeroDivisionError):
            parallel.multi_rmw(list(range(40)), _explode)
        # a failed fan-out must not desync the worker pipes
        assert parallel.multi_get(list(range(40))) == [b"x"] * 40


def _explode(keys, values):
    raise ZeroDivisionError("boom")


# ----------------------------------------------------------------------
# freeze + checkpoint coordination
# ----------------------------------------------------------------------
class TestFreezeAndCheckpoint:
    def test_freeze_blocks_writes_everywhere(self, stores):
        _, parallel = stores
        parallel.multi_put(list(range(20)), [b"x"] * 20)
        parallel.freeze()
        with pytest.raises(StorageError):
            parallel.put(1, b"y")
        with pytest.raises(StorageError):
            parallel.multi_put([1], [b"y"])
        # reads still serve
        assert parallel.multi_get([1, 2]) == [b"x", b"x"]

    def test_parallel_checkpoint_restores_serially(self, tmp_path):
        base = str(tmp_path / "interop")
        parallel = ParallelShardStore(
            make_factory(base), NUM_SHARDS, directory=base, processes=PROCESSES
        )
        keys = list(range(0, 900, 2))
        values = [bytes([key % 251]) * 8 for key in keys]
        parallel.multi_put(keys, values)
        parallel.checkpoint()
        parallel.close()
        serial = ShardedKVStore.restore(base)
        assert serial.multi_get(keys) == values
        serial.close()

    def test_serial_checkpoint_restores_in_parallel(self, tmp_path):
        base = str(tmp_path / "interop2")
        serial = ShardedKVStore(make_factory(base), NUM_SHARDS, directory=base)
        keys = list(range(0, 900, 2))
        values = [bytes([key % 251]) * 8 for key in keys]
        serial.multi_put(keys, values)
        serial.checkpoint()
        serial.close()
        parallel = ParallelShardStore.restore(base, processes=PROCESSES)
        assert parallel.multi_get(keys) == values
        assert parallel.checkpoint_root() == base
        assert any(_MANIFEST in name for name in parallel.checkpoint_files())
        parallel.close()

    def test_migrated_slot_table_restores_in_parallel(self, tmp_path):
        base = str(tmp_path / "migrated")
        serial = ShardedKVStore(make_factory(base), 4, directory=base)
        keys = list(range(300))
        values = [bytes([key % 251]) * 8 for key in keys]
        serial.multi_put(keys, values)
        serial.split_shard(0, make_factory(base))  # a rescale happened
        slots = list(serial._slots)
        assert slots != list(range(4))
        serial.checkpoint()
        serial.close()
        parallel = ParallelShardStore.restore(base, processes=PROCESSES)
        assert parallel._slots == slots and parallel.num_shards == 5
        assert parallel.multi_get(keys) == values
        assert [parallel.shard_of(key) for key in keys] == [
            slots[shard_hash(key) % len(slots)] for key in keys
        ]
        parallel.close()

    def test_dead_worker_is_a_typed_error_never_a_stale_reply(self, tmp_path):
        # Regression: killing a worker surfaced an untyped BrokenPipeError
        # and left the survivor's reply to the aborted op in its pipe, so
        # the next survivor-only read returned the previous op's values.
        store = ParallelShardStore(make_factory(tmp_path / "kill"), 4, processes=2)
        keys = list(range(300))
        store.multi_put(keys, [bytes([key % 251]) * 8 for key in keys])
        victim = store._workers[1].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()
        with pytest.raises(StorageError):
            store.multi_get(keys)
        survivor_keys = [key for key in keys if store.shard_of(key) % 2 == 0]
        assert {store.shards[store.shard_of(key)].worker for key in survivor_keys} == {
            store._workers[0]
        }
        for read in (
            lambda: store.multi_get(survivor_keys[:7]),
            lambda: store.get(survivor_keys[0]),
            lambda: len(store),
        ):
            with pytest.raises(StorageError):
                read()
        started = time.monotonic()
        store.close()
        assert time.monotonic() - started < 10
        assert not any(worker.process.is_alive() for worker in store._workers)
        store.close()  # idempotent

    def test_failed_child_build_raises_and_reaps_the_workers(self, tmp_path):
        good = make_factory(tmp_path / "half")

        def factory(index):
            if index == 3:
                raise ConfigError("shard 3 cannot be built")
            return good(index)

        before = set(multiprocessing.active_children())
        with pytest.raises(ConfigError):
            ParallelShardStore(factory, 4, processes=2)
        assert set(multiprocessing.active_children()) <= before

    def test_closed_store_refuses_ops(self, stores):
        _, parallel = stores
        parallel.close()
        with pytest.raises(StorageError):
            parallel.multi_get([1])
        parallel.close()  # idempotent


# ----------------------------------------------------------------------
# construction fallbacks
# ----------------------------------------------------------------------
class TestCreateShardedStore:
    def test_single_process_falls_back_to_serial(self, tmp_path):
        store = create_sharded_store(
            make_factory(tmp_path / "one"), NUM_SHARDS, processes=1
        )
        assert type(store) is ShardedKVStore
        store.close()

    def test_sanitizer_forces_serial(self, tmp_path, monkeypatch):
        # The runtime sanitizer wraps stores in-process; engines living in
        # worker processes would escape it, so sanitized runs must get the
        # serial wrapper even when parallelism is requested.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        store = create_sharded_store(
            make_factory(tmp_path / "san"), NUM_SHARDS, processes=4
        )
        assert type(store) is ShardedKVStore
        store.close()

    def test_parallel_when_allowed(self, tmp_path, monkeypatch):
        # Explicitly not sanitized: this test also runs under
        # `make test-sanitize`, where the fallback is the *other* branch.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        store = create_sharded_store(
            make_factory(tmp_path / "par"), NUM_SHARDS, processes=PROCESSES
        )
        assert type(store) is ParallelShardStore
        store.multi_put([1, 2], [b"a", b"b"])
        assert store.multi_get([1, 2]) == [b"a", b"b"]
        store.close()


# ----------------------------------------------------------------------
# tracing across the fork
# ----------------------------------------------------------------------
class TestTracedFanOut:
    def test_workers_drop_the_tracer_they_were_forked_with(self, tmp_path):
        """A worker forked while a tracer is installed must not keep
        recording into its copy: no one can read it, and it grows for
        the life of the worker.  The parent's trace keeps the fan-out."""
        tracer = install_tracer()
        store = ParallelShardStore(
            lambda index: FasterKV(
                str(tmp_path / f"shard{index}"), ssd=SSDModel(SimClock())
            ),
            4,
            processes=2,
        )
        try:
            keys = list(range(512))
            store.multi_put(keys, [bytes([key % 251]) * 16 for key in keys])
            for _ in range(50):
                store.multi_get(keys)
            assert [shard.call(_traced_spans) for shard in store.shards] == [None] * 4
        finally:
            store.close()
            uninstall_tracer()
        by_id = {record.span_id: record for record in tracer.spans}
        fanouts = [r for r in tracer.spans if r.name == "kv.parallel_fanout"]
        assert len(fanouts) == 51
        for fanout in fanouts:
            assert fanout.args["keys"] == 512
            children = [
                r.name for r in tracer.spans if r.parent_id == fanout.span_id
            ]
            assert children == ["parallel.dispatch", "parallel.collect"]
        # The codec phases hang below the side of the pipe they run on.
        parents = {
            name: {by_id[r.parent_id].name for r in tracer.spans if r.name == name}
            for name in ("codec.encode_records", "codec.decode_values")
        }
        assert parents == {
            "codec.encode_records": {"parallel.dispatch"},
            "codec.decode_values": {"parallel.collect"},
        }
        assert "codec.encode_values" not in {r.name for r in tracer.spans}  # worker side
