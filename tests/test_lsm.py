"""LSM store: WAL, memtable, SSTables, compaction, recovery."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import SimClock, SSDModel
from repro.kv.lsm import LsmKV, MemTable, SSTable, WriteAheadLog
from repro.kv.lsm.compaction import LeveledPolicy, merge_runs


def fresh_ssd():
    return SSDModel(SimClock())


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put(1, b"a")
        assert table.get(1) == (True, b"a")
        assert table.get(2) == (False, None)

    def test_delete_leaves_tombstone(self):
        table = MemTable()
        table.put(1, b"a")
        table.delete(1)
        assert table.get(1) == (True, None)

    def test_items_sorted_with_tombstones(self):
        table = MemTable()
        table.put(3, b"c")
        table.put(1, b"a")
        table.delete(2)
        assert list(table.items()) == [(1, b"a"), (2, None), (3, b"c")]

    def test_byte_accounting_grows(self):
        table = MemTable()
        before = table.approximate_bytes
        table.put(1, b"abcdef")
        assert table.approximate_bytes > before


class TestWAL:
    def test_replay_returns_mutations_in_order(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), fresh_ssd())
        wal.append_put(1, b"a")
        wal.append_delete(2)
        wal.append_put(1, b"b")
        assert list(wal.replay()) == [(1, b"a"), (2, None), (1, b"b")]
        wal.close()

    def test_truncate_clears_log(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), fresh_ssd())
        wal.append_put(1, b"a")
        wal.truncate()
        assert list(wal.replay()) == []
        assert os.path.getsize(wal.path) == 0
        wal.close()

    def test_replay_streams_in_bounded_chunks(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), fresh_ssd())
        expected = []
        for i in range(200):
            wal.append_put(i, bytes([i % 251]) * 40)
            expected.append((i, bytes([i % 251]) * 40))
        # A chunk far smaller than one record still replays correctly.
        assert list(wal.replay(chunk_bytes=16)) == expected
        wal.close()

    def test_replay_tolerates_torn_final_record(self, tmp_path, caplog):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path, fresh_ssd())
        wal.append_put(1, b"complete")
        wal.append_put(2, b"also complete")
        wal.sync()
        # Simulate a crash mid-append: half a record at the tail.
        import struct as _struct
        with open(path, "ab") as f:
            f.write(b"\x01" + _struct.pack("<QI", 3, 100) + b"only-a-few-bytes")
            f.flush()
        with caplog.at_level("WARNING"):
            assert list(wal.replay()) == [(1, b"complete"), (2, b"also complete")]
        assert any("torn" in record.message for record in caplog.records)
        # The file was trimmed to the last complete record, so appends
        # resume on a clean boundary and a second replay is quiet.
        wal.append_put(4, b"after recovery")
        wal.sync()
        assert list(wal.replay()) == [
            (1, b"complete"), (2, b"also complete"), (4, b"after recovery"),
        ]
        wal.close()

    def test_replay_bounds_memory_on_bogus_length(self, tmp_path, caplog):
        """A corrupted length field claiming more bytes than the file holds
        is recognized as torn immediately, without buffering the rest."""
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path, fresh_ssd())
        wal.append_put(1, b"good")
        wal.sync()
        import struct as _struct
        with open(path, "ab") as f:
            # Header claims 1 GiB of value; only a few bytes follow.
            f.write(b"\x01" + _struct.pack("<QI", 2, 1 << 30) + b"xx")
        with caplog.at_level("WARNING"):
            assert list(wal.replay(chunk_bytes=64)) == [(1, b"good")]
        assert any("torn" in record.message for record in caplog.records)
        wal.close()

    def test_sync_batches_charges(self, tmp_path):
        ssd = fresh_ssd()
        wal = WriteAheadLog(str(tmp_path / "wal"), ssd, sync_every=10)
        for i in range(9):
            wal.append_put(i, b"x")
        assert ssd.writes == 0  # below group-commit threshold
        wal.append_put(9, b"x")
        assert ssd.writes == 1
        wal.close()


class TestSSTable:
    def _build(self, tmp_path, items):
        return SSTable.build(str(tmp_path / "sst.data"), iter(items), fresh_ssd())

    def test_build_and_search(self, tmp_path):
        run = self._build(tmp_path, [(1, b"a"), (2, b"b"), (5, b"e")])
        ssd = fresh_ssd()
        block = run.read_block(run.block_for(2), ssd)
        assert SSTable.search_block(block, 2) == (True, b"b")
        assert SSTable.search_block(block, 3) == (False, None)

    def test_empty_build_returns_none(self, tmp_path):
        assert self._build(tmp_path, []) is None
        assert not os.path.exists(str(tmp_path / "sst.data"))

    def test_bloom_prunes_out_of_range(self, tmp_path):
        run = self._build(tmp_path, [(10, b"a"), (20, b"b")])
        assert not run.may_contain(5)
        assert not run.may_contain(25)
        assert run.may_contain(10)

    def test_tombstones_survive_roundtrip(self, tmp_path):
        run = self._build(tmp_path, [(1, b"a"), (2, None)])
        assert list(run.iterate(fresh_ssd())) == [(1, b"a"), (2, None)]

    def test_open_from_sidecar(self, tmp_path):
        run = self._build(tmp_path, [(i, bytes([i])) for i in range(100)])
        reopened = SSTable.open(run.path)
        assert reopened.entry_count == 100
        ssd = fresh_ssd()
        block = reopened.read_block(reopened.block_for(42), ssd)
        assert SSTable.search_block(block, 42) == (True, bytes([42]))

    def test_multi_block_layout(self, tmp_path):
        items = [(i, bytes(100)) for i in range(200)]
        run = SSTable.build(str(tmp_path / "sst.data"), iter(items), fresh_ssd(),
                            block_bytes=512)
        assert len(run.block_offsets) > 1
        ssd = fresh_ssd()
        for key in (0, 99, 199):
            block = run.read_block(run.block_for(key), ssd)
            found, value = SSTable.search_block(block, key)
            assert found and value == bytes(100)


class TestCompaction:
    def test_merge_newest_wins(self, tmp_path):
        ssd = fresh_ssd()
        new_run = SSTable.build(str(tmp_path / "new.data"), iter([(1, b"new")]), ssd)
        old_run = SSTable.build(str(tmp_path / "old.data"), iter([(1, b"old"), (2, b"keep")]), ssd)
        merged = list(merge_runs([new_run, old_run], ssd, drop_tombstones=False))
        assert merged == [(1, b"new"), (2, b"keep")]

    def test_merge_drops_tombstones_at_bottom(self, tmp_path):
        ssd = fresh_ssd()
        new_run = SSTable.build(str(tmp_path / "new.data"), iter([(1, None)]), ssd)
        old_run = SSTable.build(str(tmp_path / "old.data"), iter([(1, b"old")]), ssd)
        assert list(merge_runs([new_run, old_run], ssd, drop_tombstones=True)) == []
        assert list(merge_runs([new_run, old_run], ssd, drop_tombstones=False)) == [(1, None)]

    def test_policy_budgets_grow_geometrically(self):
        policy = LeveledPolicy(growth_factor=10, base_level_bytes=100)
        assert policy.level_budget(1) == 100
        assert policy.level_budget(3) == 10_000

    def test_policy_triggers(self):
        policy = LeveledPolicy(l0_trigger=4)
        assert policy.needs_l0_compaction(4)
        assert not policy.needs_l0_compaction(3)
        assert policy.needs_level_compaction(1, policy.level_budget(1) + 1)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            LeveledPolicy(l0_trigger=0)
        with pytest.raises(ValueError):
            LeveledPolicy(growth_factor=1)


class TestLsmStore:
    def test_crud_through_flushes(self, tmp_path):
        with LsmKV(str(tmp_path), memory_budget_bytes=1 << 14) as store:
            for i in range(2000):
                store.put(i % 300, bytes([i % 251]) * 24)
            assert store.stats.extra["flushes"] > 0
            for i in range(1700, 2000):
                assert store.get(i % 300) is not None

    def test_delete_across_runs(self, tmp_path):
        with LsmKV(str(tmp_path), memory_budget_bytes=1 << 14) as store:
            for i in range(500):
                store.put(i, bytes(32))
            store.flush()
            assert store.delete(250)
            assert store.get(250) is None
            store.flush()
            assert store.get(250) is None

    def test_compaction_reduces_run_count(self, tmp_path):
        with LsmKV(str(tmp_path), memory_budget_bytes=1 << 14) as store:
            for i in range(4000):
                store.put(i % 400, bytes(32))
            assert store.stats.extra["compactions"] > 0
            assert len(store.l0_runs) < store.policy.l0_trigger

    def test_scan_merges_all_sources(self, tmp_path):
        with LsmKV(str(tmp_path), memory_budget_bytes=1 << 14) as store:
            expected = {}
            for i in range(800):
                store.put(i % 120, bytes([i % 251]))
                expected[i % 120] = bytes([i % 251])
            store.delete(7)
            expected.pop(7, None)
            assert dict(store.scan()) == expected

    def test_recovery_from_manifest_and_wal(self, tmp_path):
        store = LsmKV(str(tmp_path), memory_budget_bytes=1 << 14)
        for i in range(700):
            store.put(i, bytes([i % 251]) * 16)
        store.close()
        recovered = LsmKV(str(tmp_path), memory_budget_bytes=1 << 14)
        for i in (0, 350, 699):
            assert recovered.get(i) == bytes([i % 251]) * 16
        recovered.close()

    def test_wal_replay_recovers_unflushed_writes(self, tmp_path):
        store = LsmKV(str(tmp_path), memory_budget_bytes=1 << 20)
        store.put(1, b"unflushed")
        store.wal.sync()
        # Simulate crash: no close(), reopen from disk state.
        recovered = LsmKV(str(tmp_path), memory_budget_bytes=1 << 20)
        assert recovered.get(1) == b"unflushed"
        recovered.close()
        store.close()

    def test_delete_leaves_get_stats_and_cpu_untouched(self, tmp_path):
        """delete()'s existence probe must not inflate user-facing read
        stats or double-charge CPU (regression: it used to call get())."""
        with LsmKV(str(tmp_path), memory_budget_bytes=1 << 20) as store:
            for i in range(50):
                store.put(i, bytes(32))
            gets = store.stats.gets
            hits = store.stats.hits
            misses = store.stats.misses
            cpu_before = store.clock.now
            assert store.delete(5)         # memtable resident: no device I/O
            assert not store.delete(9999)  # absent (nothing flushed): no I/O
            assert store.stats.gets == gets
            assert store.stats.hits == hits
            assert store.stats.misses == misses
            assert store.stats.deletes == 2
            # Exactly one per-op CPU charge per delete, nothing more.
            assert store.clock.now - cpu_before == pytest.approx(
                2 * store.op_cpu_seconds
            )

    def test_delete_of_run_resident_key_leaves_read_stats(self, tmp_path):
        with LsmKV(str(tmp_path), memory_budget_bytes=1 << 14) as store:
            for i in range(300):
                store.put(i, bytes(32))
            store.flush()
            gets = store.stats.gets
            hits = store.stats.hits
            misses = store.stats.misses
            assert store.delete(5)  # probe reads a run block, pays I/O only
            assert (store.stats.gets, store.stats.hits, store.stats.misses) == (
                gets, hits, misses
            )

    def test_run_resident_hits_counted(self, tmp_path):
        """Reads served from flushed runs must show up in the hit ratio
        (regression: only the memtable path counted hits)."""
        with LsmKV(str(tmp_path), memory_budget_bytes=1 << 14) as store:
            for i in range(300):
                store.put(i, bytes(32))
            store.flush()
            assert len(store.memtable) == 0
            store.get(7)   # faults the block in from disk: a miss
            hits_before = store.stats.hits
            assert store.get(7) is not None  # cached block: a hit
            assert store.stats.hits == hits_before + 1
            # Every get resolves to exactly one hit or miss.
            assert store.stats.hits + store.stats.misses == store.stats.gets

    def test_multi_get_accounts_one_outcome_per_key(self, tmp_path):
        with LsmKV(str(tmp_path), memory_budget_bytes=1 << 14) as store:
            for i in range(300):
                store.put(i, bytes(32))
            store.flush()
            store.multi_get([1, 2, 3, 3, 900])  # duplicates + a miss
            assert store.stats.hits + store.stats.misses == store.stats.gets

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["put", "get", "del"]),
        st.integers(0, 25),
        st.binary(min_size=1, max_size=30),
    ), max_size=100))
    def test_matches_dict_model(self, tmp_path_factory, ops):
        path = tmp_path_factory.mktemp("lsm-model")
        model = {}
        with LsmKV(str(path), memory_budget_bytes=1 << 13) as store:
            for op, key, value in ops:
                if op == "put":
                    store.put(key, value)
                    model[key] = value
                elif op == "get":
                    assert store.get(key) == model.get(key)
                else:
                    store.delete(key)
                    model.pop(key, None)
            assert dict(store.scan()) == model
