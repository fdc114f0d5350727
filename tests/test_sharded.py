"""ShardedKVStore: routing, ordering, stats — plus the
batched-equals-looped property test run against all four engines.

The batched contract (ordering, duplicates, iterables, scan/len, freeze,
balance, checkpoint → restore) runs against every *shape* of the one
router: FASTER children, RF=2 replica groups and a mix of all four
engines; each shape must also answer exactly what one unsharded engine
fed the same operations answers.  The composition test
drives what only a single router makes possible: replica groups split
live under a writer, failed over, checkpointed and restored."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.mlkv import MLKV
from repro.device import SimClock, SSDModel
from repro.errors import CheckpointError, ConfigError, StorageError
from repro.kv import ReplicaGroup, ShardedKVStore, shard_hash
from repro.kv.btree import BTreeKV
from repro.kv.faster import FasterKV
from repro.kv.lsm import LsmKV
from repro.kv.sharded import partition_array, partition_positions, shard_hash_array

ENGINES = ("faster", "mlkv", "lsm", "btree")

STORE_SHAPES = ("serial", "replicated", "mixed")


def make_engine(kind: str, directory: str, memory_budget_bytes: int = 1 << 16):
    """A small-buffer engine so batches reach the disk-resident paths."""
    ssd = SSDModel(SimClock())
    if kind == "faster":
        return FasterKV(directory, ssd=ssd, memory_budget_bytes=memory_budget_bytes)
    if kind == "mlkv":
        return MLKV(directory, ssd=ssd, memory_budget_bytes=memory_budget_bytes)
    if kind == "lsm":
        return LsmKV(directory, ssd=ssd, memory_budget_bytes=memory_budget_bytes)
    if kind == "btree":
        return BTreeKV(directory, ssd=ssd, memory_budget_bytes=memory_budget_bytes)
    raise AssertionError(kind)


@pytest.fixture
def sharded(tmp_path):
    store = ShardedKVStore(
        lambda index: FasterKV(str(tmp_path / f"shard{index}")), num_shards=4
    )
    yield store
    store.close()


def child_factory(shape: str, base):
    """The factory a shape builds its children with — and, since
    ``begin_split`` takes the same signature, its migration targets."""
    if shape == "replicated":
        return lambda index: ReplicaGroup(
            [FasterKV(str(base / f"shard{index}" / f"r{replica}")) for replica in range(2)],
            directory=str(base / f"shard{index}"),
        )
    if shape == "mixed":
        return lambda index: make_engine(ENGINES[index % 4], str(base / f"shard{index}"))
    return lambda index: FasterKV(str(base / f"shard{index}"))


def make_shaped(shape: str, base, coordinated: bool = False):
    """A 4-shard store in one of the router's shapes: FASTER children,
    RF=2 groups of FASTER replicas, or one child of each engine kind."""
    directory = str(base) if coordinated else None
    return ShardedKVStore(child_factory(shape, base), 4, directory=directory)


@pytest.fixture(params=STORE_SHAPES)
def shaped(request, tmp_path):
    store = make_shaped(request.param, tmp_path)
    yield store
    store.close()


class TestRouting:
    def test_shard_of_is_deterministic_and_in_range(self, sharded):
        for key in range(1000):
            shard = sharded.shard_of(key)
            assert 0 <= shard < sharded.num_shards
            assert shard == sharded.shard_of(key)

    def test_each_key_lives_in_exactly_one_child(self, sharded):
        keys = list(range(200))
        sharded.multi_put(keys, [bytes([key % 251]) * 8 for key in keys])
        for key in keys:
            holders = [
                index
                for index, child in enumerate(sharded.shards)
                if child.get(key) is not None
            ]
            assert holders == [sharded.shard_of(key)]

    def test_dense_key_range_spreads_evenly(self, sharded):
        keys = list(range(4000))
        sharded.multi_put(keys, [b"v" for _ in keys])
        assert sharded.imbalance() < 1.25

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigError):
            ShardedKVStore(lambda index: None, num_shards=0)

    def test_hash_is_not_modulo_striping(self):
        # Consecutive keys must not stripe round-robin across shards.
        shards = [shard_hash(key) % 4 for key in range(16)]
        assert shards != [key % 4 for key in range(16)]

    def test_failed_child_build_raises_the_factory_error(self, tmp_path):
        def factory(index):
            if index == 3:
                raise ConfigError("shard 3 cannot be built")
            return FasterKV(str(tmp_path / f"half{index}"))

        with pytest.raises(ConfigError, match="shard 3"):
            ShardedKVStore(factory, 4)


#: Slot tables the partitioners must honour: the identity, one after a
#: split re-pointed slots, and a single-engine table.
SLOT_TABLES = {
    "identity": [0, 1, 2, 3],
    "migrated": [0, 1, 2, 3, 4, 1, 0, 3],
    "single": [0],
}


def scalar_partition(keys, slots) -> dict[int, list[int]]:
    """The per-key reference the vectorized partitioners must equal."""
    expected: dict[int, list[int]] = {}
    for position, key in enumerate(keys):
        expected.setdefault(slots[shard_hash(key) % len(slots)], []).append(position)
    return expected


class TestPartition:
    def test_vectorized_hash_matches_scalar_hash(self):
        keys = np.concatenate([
            np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64),
            np.random.default_rng(4).integers(0, 2**63, 500, dtype=np.uint64) * np.uint64(2),
        ])
        assert shard_hash_array(keys).tolist() == [shard_hash(int(key)) for key in keys]

    @pytest.mark.parametrize("table", SLOT_TABLES)
    def test_vectorized_partition_matches_scalar_hash(self, table):
        slots = SLOT_TABLES[table]
        keys = list(range(500)) + [2**63, 2**64 - 1]
        expected = scalar_partition(keys, slots)
        got = partition_positions(keys, slots)
        assert got == expected
        assert list(got) == list(expected)  # shards in order of first appearance

    @pytest.mark.parametrize("table", SLOT_TABLES)
    def test_array_partition_matches_scalar_hash(self, table):
        slots = SLOT_TABLES[table]
        keys = np.random.default_rng(11).integers(0, 1 << 40, 700)
        got = [(shard, group.tolist()) for shard, group in partition_array(keys, slots)]
        assert got == list(scalar_partition(keys.tolist(), slots).items())

    def test_keys_past_uint64_take_the_per_key_path(self):
        slots = SLOT_TABLES["migrated"]
        for keys in ([2**64, 5, 2**64 + 9], [2**64 + 1], [12]):
            assert partition_positions(keys, slots) == scalar_partition(keys, slots)

    def test_positions_preserve_input_order_per_shard(self):
        positions = partition_positions(list(range(100)), list(range(4)))
        for per_shard in positions.values():
            assert per_shard == sorted(per_shard)
        assert sorted(p for group in positions.values() for p in group) == list(range(100))


class TestCrossShardOrdering:
    def test_multi_get_preserves_input_order_and_duplicates(self, shaped):
        keys = [7, 3, 7, 900, 11, 3]
        shaped.multi_put([3, 7, 11], [b"three", b"seven", b"eleven"])
        expected = [b"seven", b"three", b"seven", None, b"eleven", b"three"]
        assert shaped.multi_get(keys) == expected
        assert shaped.snapshot_read_many(keys) == expected

    def test_multi_put_last_duplicate_wins_across_shards(self, shaped):
        keys = [5, 6, 5, 6, 5]
        values = [b"a", b"b", b"c", b"d", b"e"]
        shaped.multi_put(keys, values)
        assert shaped.get(5) == b"e"
        assert shaped.get(6) == b"d"

    def test_iterables_accepted_and_length_checked(self, shaped):
        shaped.multi_put((key for key in [1, 2]), (value for value in [b"x", b"y"]))
        assert shaped.multi_get(key for key in [2, 1]) == [b"y", b"x"]
        with pytest.raises(ValueError):
            shaped.multi_put((key for key in [1, 2]), (value for value in [b"x"]))

    def test_scan_and_len_are_exact(self, shaped):
        keys = list(range(50))
        shaped.multi_put(keys, [key.to_bytes(2, "little") for key in keys])
        shaped.delete(49)
        scanned = list(shaped.scan())
        assert len(scanned) == len(shaped) == 49
        assert dict(scanned) == {key: key.to_bytes(2, "little") for key in keys[:49]}

    def test_freeze_blocks_every_write_and_keeps_reads(self, shaped):
        shaped.multi_put([1, 2], [b"x", b"y"])
        assert shaped.freeze() is shaped
        for write in (
            lambda: shaped.put(3, b"z"),
            lambda: shaped.delete(1),
            lambda: shaped.multi_put([3], [b"z"]),
            lambda: shaped.put_rows(
                np.array([1], dtype=np.int64), np.zeros((1, 1), dtype=np.uint8)
            ),
        ):
            with pytest.raises(StorageError):
                write()
        assert shaped.multi_get([1, 2, 3]) == [b"x", b"y", None]

    def test_balance_counts_routed_ops(self, shaped):
        shaped.multi_put(list(range(100)), [b"v"] * 100)
        shaped.multi_get(list(range(40)))
        shaped.get(0)
        assert sum(shaped.balance()) == sum(shaped.stats.extra["shard_ops"]) == 141
        assert shaped.imbalance() >= 1.0

    @pytest.mark.parametrize("shape", STORE_SHAPES)
    def test_checkpoint_restore_round_trip(self, shape, tmp_path):
        store = make_shaped(shape, tmp_path, coordinated=True)
        keys = list(range(300))
        values = [bytes([key % 251]) * (4 + key % 5) for key in keys]
        store.multi_put(keys, values)
        store.checkpoint()
        store.close()
        manifest_path = tmp_path / "sharded.manifest.json"
        for legacy in (False, True):
            if legacy:  # manifests written before slot tables were recorded
                manifest = json.loads(manifest_path.read_text())
                del manifest["slots"]
                manifest_path.write_text(json.dumps(manifest))
            restored = ShardedKVStore.restore(str(tmp_path))
            try:
                assert [type(child) for child in restored.shards] == [
                    type(child) for child in store.shards
                ]
                assert restored.multi_get(keys) == values
                assert len(restored) == 300
            finally:
                restored.close()

    @pytest.mark.parametrize("shape", STORE_SHAPES)
    def test_bad_manifests_raise_checkpoint_error(self, shape, tmp_path):
        """Hostile or torn manifests are typed errors, never a decode
        error, an arbitrary import, or a read outside the base."""
        store = make_shaped(shape, tmp_path, coordinated=True)
        store.multi_put(list(range(40)), [b"v"] * 40)
        store.checkpoint()
        store.close()
        router_path = tmp_path / "sharded.manifest.json"
        # A group's replicas are recorded in the group's own manifest.
        manifest_path = (
            tmp_path / "shard0" / "group.manifest.json" if shape == "replicated" else router_path
        )
        pristine = manifest_path.read_text()
        children = "replicas" if shape == "replicated" else "shards"

        def first_entry(field, value):
            manifest = json.loads(pristine)
            manifest[field][0] = value
            return json.dumps(manifest)

        without_children = json.loads(pristine)
        del without_children[children]
        corruptions = {
            "truncated JSON": pristine[: len(pristine) // 2],
            "not an object": "[1, 2]",
            "children removed": json.dumps(without_children),
            "type is not a KVStore": first_entry("types", "os.system"),
            "type does not exist": first_entry("types", "repro.kv.nope.Missing"),
            "path escapes the base": first_entry(children, "../../etc"),
            "absolute path": first_entry(children, "/etc"),
        }
        for label, text in corruptions.items():
            manifest_path.write_text(text)
            with pytest.raises(CheckpointError):
                ShardedKVStore.restore(str(tmp_path)).close()
                pytest.fail(f"{shape}: restore accepted a manifest with {label}")
        manifest_path.write_text(pristine)
        router = json.loads(router_path.read_text())
        router_path.write_text(json.dumps({**router, "slots": [0, 9]}))
        with pytest.raises(CheckpointError):
            ShardedKVStore.restore(str(tmp_path)).close()
        router_path.write_text(json.dumps(router))
        os.remove(manifest_path)
        with pytest.raises(CheckpointError):
            ShardedKVStore.restore(str(tmp_path)).close()

    def test_scan_merges_mixed_engine_children(self, tmp_path):
        """Serving cache warmup streams scan() over any engine mix: every
        live key must appear exactly once, with its newest value."""
        children = [
            make_engine(kind, str(tmp_path / kind)) for kind in ENGINES
        ]
        store = ShardedKVStore(lambda index: children[index], len(children))
        keys = list(range(300))
        store.multi_put(keys, [key.to_bytes(2, "little") for key in keys])
        store.multi_put([7, 8], [b"new7", b"new8"])  # overwrites
        store.delete(9)
        scanned = list(store.scan())
        assert len(scanned) == len(dict(scanned)) == 299
        expected = {key: key.to_bytes(2, "little") for key in keys}
        expected[7], expected[8] = b"new7", b"new8"
        del expected[9]
        assert dict(scanned) == expected
        store.close()

    def test_scan_covers_disk_resident_records(self, tmp_path):
        """Warmup must see records the buffer evicted, not just hot ones."""
        store = ShardedKVStore(
            lambda index: FasterKV(
                str(tmp_path / f"s{index}"),
                ssd=SSDModel(SimClock()),
                memory_budget_bytes=1 << 12,
                page_bytes=1 << 12,
            ),
            num_shards=2,
        )
        keys = list(range(400))
        store.multi_put(keys, [b"x" * 64 for _ in keys])
        assert dict(store.scan()) == {key: b"x" * 64 for key in keys}
        store.close()


def _engines_of(store):
    """The engines under a router: its children, or its groups' replicas."""
    return [
        engine
        for child in store.shards
        for engine in (child.replicas if isinstance(child, ReplicaGroup) else [child])
    ]


@pytest.fixture
def reference(tmp_path):
    """One unsharded engine: what every shape must answer like."""
    engine = FasterKV(str(tmp_path / "reference"))
    yield engine
    engine.close()


def _load_both(store, reference, n=1200, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 4000, size=n).tolist()
    values = [bytes([key % 251]) * (4 + key % 7) for key in keys]
    store.multi_put(keys, values)
    reference.multi_put(keys, values)
    return keys


class TestAgainstOneEngine:
    """Each shape, fed the same operations as one unsharded engine,
    answers exactly what that engine answers."""

    def test_batched_reads_match(self, shaped, reference):
        _load_both(shaped, reference)
        probe = list(range(0, 5000, 3))  # hits and misses
        expected = reference.multi_get(probe)
        assert shaped.multi_get(probe) == expected
        assert shaped.snapshot_read_many(probe) == expected

    def test_single_ops_match(self, shaped, reference):
        keys = _load_both(shaped, reference)
        for key in keys[:40] + [999_999]:
            assert shaped.get(key) == reference.get(key)
            assert shaped.snapshot_read(key) == reference.snapshot_read(key)
        assert shaped.delete(keys[0]) is reference.delete(keys[0]) is True
        assert shaped.delete(999_999) is reference.delete(999_999) is False
        shaped.put(31337, b"v")
        reference.put(31337, b"v")
        assert shaped.get(31337) == reference.get(31337) == b"v"
        assert dict(shaped.scan()) == dict(reference.scan())

    def test_overwrites_that_change_length_match(self, shaped, reference):
        rng = np.random.default_rng(5)
        for round_no in range(4):
            keys = rng.integers(0, 300, 400).tolist()
            values = [bytes([(key + round_no) % 251]) * (2 + (key + round_no) % 9)
                      for key in keys]
            shaped.multi_put(keys, values)
            reference.multi_put(keys, values)
            doomed = keys[::17]
            assert [shaped.delete(key) for key in doomed] == [
                reference.delete(key) for key in doomed
            ]
        assert dict(shaped.scan()) == dict(reference.scan())
        assert len(shaped) == len(reference)

    def test_empty_batches(self, shaped):
        assert shaped.multi_get([]) == []
        assert shaped.snapshot_read_many([]) == []
        shaped.multi_put([], [])
        assert shaped.lookahead([]) == 0
        assert len(shaped) == 0 and sum(shaped.balance()) == 0

    def test_rows_round_trip_and_absent_rows_stay(self, shaped):
        keys = np.random.default_rng(2).permutation(500)[:300]
        rows = np.arange(300 * 8, dtype=np.uint8).reshape(300, 8)
        shaped.put_rows(keys, rows)
        out = np.full((320, 8), 7, dtype=np.uint8)
        probe = np.concatenate([keys[::-1], np.arange(600, 620)])
        found = shaped.get_rows(probe, out)
        assert found.tolist() == [True] * 300 + [False] * 20
        assert np.array_equal(out[:300], rows[::-1])
        assert (out[300:] == 7).all()
        assert shaped.multi_get(keys[:5].tolist()) == [bytes(row) for row in rows[:5]]

    def test_snapshot_read_then_put_rows_matches(self, shaped, reference):
        """The parameter server's apply over a router: one committed read
        of every shard, then one row write of every shard."""
        rng = np.random.default_rng(4)
        keys = rng.permutation(400)[:200]
        rows = rng.integers(0, 256, (200, 8), dtype=np.uint8)
        for store in (shaped, reference):
            store.put_rows(keys[:150], rows[:150])  # the last 50 stay absent
        for _ in range(3):
            batch = rng.permutation(keys)[:120]
            current = shaped.snapshot_read_many(batch.tolist())
            assert current == reference.snapshot_read_many(batch.tolist())
            base = np.array(
                [np.zeros(8, np.uint8) if raw is None else np.frombuffer(raw, np.uint8)
                 for raw in current]
            )
            updated = np.ascontiguousarray(base + np.uint8(1))
            shaped.put_rows(batch, updated)
            reference.put_rows(batch, updated)
        assert dict(shaped.scan()) == dict(reference.scan())

    def test_rejected_put_rows_writes_nothing(self, shaped):
        keys = np.arange(40)
        shaped.put_rows(keys, np.full((40, 8), 1, dtype=np.uint8))
        before = sum(shaped.balance())
        rows = np.full((40, 8), 2, dtype=np.uint8)
        for bad_keys, bad_rows in [
            (keys, rows[:39]),  # one row short
            (keys.astype(np.float64), rows),  # not integer keys
            (keys, np.asfortranarray(rows)),  # not C-contiguous
        ]:
            with pytest.raises(ValueError):
                shaped.put_rows(bad_keys, bad_rows)
        assert sum(shaped.balance()) == before  # no shard was reached
        assert shaped.multi_get(keys.tolist()) == [bytes([1]) * 8] * 40

    def test_stats_count_the_routed_read_path(self, shaped):
        copies = 2 if isinstance(shaped.shards[0], ReplicaGroup) else 1
        shaped.multi_put(list(range(50)), [b"x"] * 50)
        shaped.multi_get(list(range(80)))
        stats = shaped.stats
        assert (stats.puts, stats.gets) == (50 * copies, 80)
        assert sum(stats.extra["shard_ops"]) == 130
        assert (stats.hits, stats.misses) == (
            sum(child.stats.hits for child in shaped.shards),
            sum(child.stats.misses for child in shaped.shards),
        )
        # A hit is each engine's own notion (a buffer hit on the LSM and
        # B-tree), so only all-FASTER shapes pin it to found keys.
        if all(isinstance(child, FasterKV) for child in _engines_of(shaped)):
            assert (stats.hits, stats.misses) == (50, 30)

    def test_stats_survive_close(self, shaped):
        shaped.multi_put(list(range(60)), [b"y"] * 60)
        shaped.multi_get(list(range(90)))
        before = shaped.stats
        shaped.close()
        after = shaped.stats
        assert (after.puts, after.gets, after.hits, after.misses) == (
            before.puts, before.gets, before.hits, before.misses,
        )
        assert after.extra["shard_ops"] == before.extra["shard_ops"]
        shaped.close()  # idempotent

    @pytest.mark.parametrize("shape", STORE_SHAPES)
    def test_split_slot_table_survives_checkpoint(self, shape, tmp_path):
        store = make_shaped(shape, tmp_path, coordinated=True)
        keys = list(range(300))
        values = [bytes([key % 251]) * 8 for key in keys]
        store.multi_put(keys, values)
        store.begin_split(0, child_factory(shape, tmp_path)).cutover()
        slots = list(store._slots)
        assert slots != list(range(4))
        store.checkpoint()
        assert store.checkpoint_root() == str(tmp_path)
        assert "sharded.manifest.json" in store.checkpoint_files()
        store.close()
        restored = ShardedKVStore.restore(str(tmp_path))
        try:
            assert restored._slots == slots and restored.num_shards == 5
            assert restored.multi_get(keys) == values
            assert [restored.shard_of(key) for key in keys] == [
                slots[shard_hash(key) % len(slots)] for key in keys
            ]
            assert restored.checkpoint_root() == str(tmp_path)
        finally:
            restored.close()


class TestStatsAggregation:
    def test_counters_sum_over_children(self, sharded):
        keys = list(range(64))
        sharded.multi_put(keys, [b"v" * 4 for _ in keys])
        sharded.multi_get(keys)
        sharded.get(0)
        sharded.delete(1)
        stats = sharded.stats
        assert stats.puts == 64
        assert stats.gets == 65
        assert stats.deletes == 1
        assert stats.puts == sum(child.stats.puts for child in sharded.shards)
        assert stats.gets == sum(child.stats.gets for child in sharded.shards)
        assert sum(stats.extra["shard_ops"]) == 64 + 64 + 1 + 1

    def test_hit_ratio_derives_from_summed_counters(self, tmp_path):
        """Regression: the aggregated hit ratio must be Σhits / (Σhits +
        Σmisses), *not* the mean of per-shard ratios.

        Traffic is asymmetric so the two formulas disagree: shard 0
        serves 10 gets, all hits (ratio 1.0); shard 1 serves 40 gets
        with 4 hits (ratio 0.1).  Averaging per-shard ratios yields
        0.55 regardless of volume; the volume-weighted truth is
        14 / 50 = 0.28.
        """
        store = ShardedKVStore(
            lambda index: FasterKV(str(tmp_path / f"h{index}")), num_shards=2
        )
        # Find keys per shard; fill shard 0 fully, shard 1 sparsely.
        shard_keys: dict[int, list[int]] = {0: [], 1: []}
        key = 0
        while any(len(keys) < 40 for keys in shard_keys.values()):
            shard_keys[store.shard_of(key)].append(key)
            key += 1
        present = shard_keys[0][:10] + shard_keys[1][:4]
        store.multi_put(present, [b"v"] * len(present))
        # Shard 0: 10 hits.  Shard 1: 4 hits + 36 misses.
        store.multi_get(shard_keys[0][:10])
        store.multi_get(shard_keys[1][:40])
        stats = store.stats
        assert stats.hits == 14
        assert stats.misses == 36
        averaged = sum(
            child.stats.hit_ratio() for child in store.shards
        ) / store.num_shards
        assert averaged == pytest.approx(0.55)
        assert stats.hit_ratio() == pytest.approx(14 / 50)
        assert stats.hit_ratio() != pytest.approx(averaged)
        store.close()


class TestMLKVPassthroughs:
    def test_lookahead_and_staleness_bound_fan_out(self, tmp_path):
        store = ShardedKVStore(
            lambda index: MLKV(
                str(tmp_path / f"mlkv{index}"),
                staleness_bound=index + 3,
                memory_budget_bytes=1 << 15,
            ),
            num_shards=2,
        )
        try:
            keys = list(range(3000))
            store.multi_put(keys, [bytes(40) for _ in keys])
            assert store.staleness_bound == 3  # tightest child bound
            copied = store.lookahead(keys)
            assert copied > 0  # small buffers forced records to disk
            committed = store.snapshot_read_many([5, 40000, 2])
            assert committed[0] is not None and committed[1] is None
        finally:
            store.close()

    def test_mixed_children_have_no_staleness_bound(self, tmp_path):
        store = ShardedKVStore(
            lambda index: FasterKV(str(tmp_path / f"plain{index}")), num_shards=2
        )
        try:
            assert getattr(store, "staleness_bound", None) is None
        finally:
            store.close()

    def test_len_works_with_unsized_children(self, tmp_path):
        kinds = ["faster", "lsm", "btree", "mlkv"]
        store = ShardedKVStore(
            lambda index: make_engine(kinds[index], str(tmp_path / f"sz{index}")),
            num_shards=4,
        )
        try:
            keys = list(range(120))
            store.multi_put(keys, [b"v"] * 120)
            assert len(store) == 120  # LSM/B-tree children count via scan
        finally:
            store.close()

    def test_shared_ssd_exposed_private_devices_not(self, tmp_path):
        ssd = SSDModel(SimClock())
        shared = ShardedKVStore(
            lambda index: FasterKV(str(tmp_path / f"sh{index}"), ssd=ssd),
            num_shards=2,
        )
        private = ShardedKVStore(
            lambda index: FasterKV(str(tmp_path / f"pr{index}")), num_shards=2
        )
        try:
            assert shared.ssd is ssd
            assert getattr(private, "ssd", None) is None
        finally:
            shared.close()
            private.close()


class TestBatchedEqualsLooped:
    """Property test: the batched hot paths are behavior-identical to the
    per-key loop on every engine, including disk-resident records,
    overwrites, value-length changes (RCU paths) and duplicate keys."""

    @pytest.mark.parametrize("kind", ENGINES)
    def test_multi_get_matches_looped_get(self, kind, tmp_path):
        rng = np.random.default_rng(42)
        store = make_engine(kind, str(tmp_path / "one"))
        try:
            keys = rng.integers(0, 800, 1200)
            values = [bytes([int(key) % 251]) * (8 + int(key) % 5) for key in keys]
            store.multi_put([int(key) for key in keys], values)
            probe = [int(key) for key in rng.integers(0, 1000, 500)]
            probe += probe[:50]  # duplicates
            batched = store.multi_get(probe)
            looped = [store.get(key) for key in probe]
            assert batched == looped
        finally:
            store.close()

    @pytest.mark.parametrize("kind", ENGINES)
    def test_multi_put_matches_looped_put(self, kind, tmp_path):
        rng = np.random.default_rng(7)
        batched_store = make_engine(kind, str(tmp_path / "batched"))
        looped_store = make_engine(kind, str(tmp_path / "looped"))
        try:
            for round_no in range(4):
                keys = [int(key) for key in rng.integers(0, 300, 400)]
                # Varying lengths force read-copy-update appends in the
                # hybrid log and node growth in the B+tree.
                values = [
                    bytes([(key + round_no) % 251]) * (4 + (key + round_no) % 7)
                    for key in keys
                ]
                batched_store.multi_put(keys, values)
                for key, value in zip(keys, values):
                    looped_store.put(key, value)
            assert dict(batched_store.scan()) == dict(looped_store.scan())
            probe = [int(key) for key in rng.integers(0, 350, 300)]
            assert batched_store.multi_get(probe) == [
                looped_store.get(key) for key in probe
            ]
        finally:
            batched_store.close()
            looped_store.close()

    def test_sharded_batched_equals_looped(self, tmp_path):
        """The composition preserves the property end to end."""
        rng = np.random.default_rng(3)
        kinds = ["faster", "mlkv", "lsm", "btree"]
        store = ShardedKVStore(
            lambda index: make_engine(kinds[index], str(tmp_path / f"mix{index}")),
            num_shards=4,
        )
        try:
            keys = [int(key) for key in rng.integers(0, 500, 800)]
            values = [bytes([key % 251]) * (6 + key % 4) for key in keys]
            store.multi_put(keys, values)
            probe = [int(key) for key in rng.integers(0, 600, 400)]
            assert store.multi_get(probe) == [store.get(key) for key in probe]
        finally:
            store.close()

    @pytest.mark.parametrize("kind", ENGINES)
    def test_batched_is_not_slower_on_simulated_clock(self, kind, tmp_path):
        """Amortization must show up as simulated time saved."""
        looped_store = make_engine(kind, str(tmp_path / "slow"))
        batched_store = make_engine(kind, str(tmp_path / "fast"))
        try:
            keys = list(range(2000))
            values = [bytes(32) for _ in keys]
            for store in (looped_store, batched_store):
                store.multi_put(keys, values)
                store.clock.drain()
            start = looped_store.clock.now
            for key in keys:
                looped_store.get(key)
            looped_store.clock.drain()
            looped_elapsed = looped_store.clock.now - start
            start = batched_store.clock.now
            batched_store.multi_get(keys)
            batched_store.clock.drain()
            batched_elapsed = batched_store.clock.now - start
            assert batched_elapsed <= looped_elapsed
        finally:
            looped_store.close()
            batched_store.close()


class TestComposition:
    """Replication x live migration on the one router.

    RF=2 groups; one replica of the group being split was dead while a
    key in the moving range was written, and revived — while the group
    is split under a writer, cut over with deferred cleanup, its
    successor failed over, and the whole store checkpointed and
    restored.  Every key must equal a dict model throughout.
    """

    @pytest.mark.parametrize("parity", (0, 1))
    def test_revived_group_splits_live_fails_over_and_restores(self, parity, tmp_path):
        def factory(shard):
            return ReplicaGroup(
                [FasterKV(str(tmp_path / f"g{shard}" / f"r{replica}")) for replica in range(2)],
                directory=str(tmp_path / f"g{shard}"),
            )

        store = ShardedKVStore(factory, 2, directory=str(tmp_path))
        rng = np.random.default_rng(17)
        model = {key: f"v{key}".encode() for key in range(600)}
        store.multi_put(list(model), list(model.values()))

        # Group 0 owns slot 0 of [0, 1]; the split doubles the table and
        # moves slot 2, so a key with hash % 4 == 2 is about to move.
        stale_key = next(key for key in model if shard_hash(key) % 4 == 2)
        assert store.shard_of(stale_key) == 0
        store.shards[0].fail(1)
        store.put(stale_key, b"fresh")  # replica 1 misses this one write
        model[stale_key] = b"fresh"
        assert store.shards[0].revive(1) == 1  # replays it before serving
        assert store.shards[0].live_indices() == [0, 1]
        # Routed reads round-robin over both replicas, so the two
        # parities hand the migration's copy to either replica.
        for _ in range(parity):
            store.get(next(key for key in model if store.shard_of(key) == 0))

        migration = store.begin_split(0, factory)
        writable = [key for key in range(700) if key != stale_key]
        step = 0
        while migration.copy_step(32):
            write_keys = rng.choice(writable, size=12, replace=False).tolist()
            values = [f"w{key}.{step}".encode() for key in write_keys]
            store.multi_put(write_keys[:10], values[:10])
            store.put(write_keys[10], values[10])
            model.update(zip(write_keys[:11], values[:11]))
            store.delete(write_keys[11])
            model.pop(write_keys[11], None)
            step += 1
        assert step > 3, "the copy must interleave with the writer"
        assert migration.cutover(defer_cleanup=True) == 2
        assert store.cleanup_pending() > 0
        while store.cleanup_step(50):
            pass
        assert store.shard_of(stale_key) == 2

        def check(current):
            keys = sorted(set(range(700)))
            assert current.multi_get(keys) == [model.get(key) for key in keys]
            assert dict(current.scan()) == model
            assert len(current) == len(model)

        check(store)

        # Fail over the freshly built group, keep writing (hints queue up
        # against the dead replica), then checkpoint and restore.
        store.shards[2].fail(0)
        late = [key for key in model if store.shard_of(key) == 2][:20]
        store.multi_put(late, [b"late"] * len(late))
        model.update((key, b"late") for key in late)
        # A read that feeds a write comes from the surviving replica
        # while the dead one's hints queue up.
        current = store.snapshot_read_many(late[:5])
        assert current == [b"late"] * 5
        store.multi_put(late[:5], [value + b"!" for value in current])
        model.update((key, b"late!") for key in late[:5])
        check(store)
        slots = list(store._slots)
        store.checkpoint()
        store.close()

        restored = ShardedKVStore.restore(str(tmp_path))
        try:
            assert restored._slots == slots and restored.num_shards == 3
            assert restored.shards[2].live_indices() == [1]
            assert restored.shards[2].hints_outstanding(0) == len(late)
            check(restored)
            # The dead replica's hinted writes replay on revive.
            assert restored.shards[2].revive(0) == len(late)
            restored.shards[2].fail(1)
            check(restored)
        finally:
            restored.close()
