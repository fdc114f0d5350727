"""``get_rows`` / ``put_rows`` ≡ ``multi_get`` / ``multi_put``, above the engines.

The array verbs are defined as the list verbs over ``keys.tolist()`` and
``row_values(rows)``.  ``tests/test_batch_native.py`` holds FASTER and MLKV
to that, run by run; here the same definition is checked where it is the
base class's own code (LSM, B+tree, a replica group, a frozen store), in
the router's permute-slice-unpermute override (children on one simulated
clock, so the order shards are visited in is observable, and with a
migration in flight), and in the embedding facade, whose ``get`` / ``put``
must be what they were when they went through lists of ``bytes``.  Twin
stores are fed the same calls through the two surfaces and must agree on
results, counters and the simulated clock.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.core.staleness import ASP_BOUND
from repro.device import SimClock, SSDModel
from repro.errors import StorageError
from repro.kv.api import row_values
from repro.kv.btree.store import BTreeKV
from repro.kv.common.serialization import decode_vectors, encode_vectors
from repro.kv.faster.store import FasterKV
from repro.kv.lsm.store import LsmKV
from repro.kv.replicated import ReplicaGroup
from repro.kv.sharded import ShardedKVStore

WIDTH = 20


def value_rows(keys, salt: int) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64)
    return np.tile(((keys * 7 + salt) % 251).astype(np.uint8)[:, None], (1, WIDTH))


def get_listed(store, keys: np.ndarray):
    """``get_rows`` read back as ``multi_get`` would have answered."""
    out = np.full((len(keys), WIDTH), 0xEE, dtype=np.uint8)
    found = store.get_rows(keys, out)
    assert found.dtype == bool and found.shape == keys.shape
    assert (out[~found] == 0xEE).all()  # rows of absent keys are left alone
    return [row.tobytes() if held else None for row, held in zip(out, found)]


def seen(store) -> tuple:
    stats = store.stats
    clock = getattr(getattr(store, "ssd", None), "clock", None)
    return (stats.gets, stats.puts, stats.hits, stats.misses,
            None if clock is None else clock.now)


def drive(listed, rowed) -> None:
    """The same puts and gets through both surfaces: present and absent
    keys, duplicates, an overwrite, both key dtypes, an empty batch."""
    rng = np.random.default_rng(4)
    batches = [
        np.arange(0, 300, 2),
        rng.permutation(300)[:120],
        np.array([5, 5, 8, 5, 900, 8]),
        np.arange(250, 330).astype(np.uint64),
        np.array([], dtype=np.int64),
    ]
    for salt, keys in enumerate(batches):
        rows = value_rows(keys, salt)
        listed.multi_put(keys.tolist(), row_values(rows))
        rowed.put_rows(keys, rows)
        assert seen(listed) == seen(rowed)
        probe = np.concatenate([keys[::-1], np.arange(280, 340, dtype=keys.dtype)])
        assert get_listed(rowed, probe) == listed.multi_get(probe.tolist())
        assert seen(listed) == seen(rowed)
    assert dict(listed.scan()) == dict(rowed.scan())


# ----------------------------------------------------------------------
# the base-class defaults
# ----------------------------------------------------------------------
def _engine(kind: str, path, ssd=None):
    ssd = ssd or SSDModel(SimClock())
    if kind == "lsm":
        return LsmKV(str(path), ssd=ssd, memory_budget_bytes=1 << 14)
    if kind == "btree":
        return BTreeKV(str(path), ssd=ssd, memory_budget_bytes=1 << 15, fanout=8)
    if kind == "faster":
        return FasterKV(str(path), ssd=ssd, memory_budget_bytes=1 << 13, page_bytes=1 << 10)
    return MLKV(str(path), ssd=ssd, memory_budget_bytes=1 << 13, page_bytes=1 << 10,
                staleness_bound=ASP_BOUND)


def _group(path, kind="faster"):
    ssd = SSDModel(SimClock())
    return ReplicaGroup([_engine(kind, path / f"r{r}", ssd) for r in range(2)])


class TestBaseClassDefaults:
    @pytest.mark.parametrize("kind", ["lsm", "btree"])
    def test_an_engine_without_array_verbs_of_its_own(self, tmp_path, kind):
        with _engine(kind, tmp_path / "a") as listed, _engine(kind, tmp_path / "b") as rowed:
            assert "get_rows" not in vars(type(rowed)) and "put_rows" not in vars(type(rowed))
            drive(listed, rowed)

    def test_a_replica_group(self, tmp_path):
        listed, rowed = _group(tmp_path / "a"), _group(tmp_path / "b")
        drive(listed, rowed)
        assert (listed.alive, listed.hints_outstanding(0), listed.hints_outstanding(1)) == (
            rowed.alive, rowed.hints_outstanding(0), rowed.hints_outstanding(1))
        listed.close(), rowed.close()

    @pytest.mark.parametrize("kind", ["lsm", "faster", "mlkv"])
    def test_a_frozen_store_serves_rows_and_refuses_them(self, tmp_path, kind):
        with _engine(kind, tmp_path / "a") as store:
            keys = np.arange(60)
            store.put_rows(keys, value_rows(keys, 1))
            store.freeze()
            assert get_listed(store, keys) == row_values(value_rows(keys, 1))
            with pytest.raises(StorageError) as listed:
                store.multi_put(keys.tolist(), row_values(value_rows(keys, 2)))
            with pytest.raises(StorageError) as rowed:
                store.put_rows(keys, value_rows(keys, 2))
            assert str(rowed.value) == str(listed.value)

    def test_a_value_that_is_no_row_is_named(self, tmp_path):
        with _engine("lsm", tmp_path / "a") as store:
            store.multi_put([1, 2, 3], [bytes(WIDTH), bytes(WIDTH + 2), bytes(WIDTH)])
            out = np.zeros((3, WIDTH), dtype=np.uint8)
            with pytest.raises(ValueError, match=f"key 2 holds {WIDTH + 2} bytes, not {WIDTH}"):
                store.get_rows(np.array([1, 2, 3]), out)
            assert store.stats.gets == 3


# ----------------------------------------------------------------------
# the router's override
# ----------------------------------------------------------------------
def _router(path, kind="mlkv", shards=4):
    ssd = SSDModel(SimClock())  # one device: the order of shard visits shows on its clock
    store = ShardedKVStore(lambda index: _engine(kind, path / f"s{index}", ssd), shards)
    visits: list = []
    dispatch = store._dispatch

    def spy(op, batches, *args):
        visits.append([(shard, [int(key) for key in columns[0]]) for shard, columns in batches])
        return dispatch(op, batches, *args)

    store._dispatch = spy
    return store, visits


class TestRouter:
    @pytest.mark.parametrize("kind", ["mlkv", "lsm"])
    def test_rows_through_the_router_equal_lists_through_the_router(self, tmp_path, kind):
        (listed, listed_visits), (rowed, rowed_visits) = (
            _router(tmp_path / "a", kind), _router(tmp_path / "b", kind))
        drive(listed, rowed)
        # The same shards, in the same order, with the same keys in the same order.
        assert listed_visits == rowed_visits and len(rowed_visits) >= 8
        assert listed.balance() == rowed.balance()
        assert [seen(shard) for shard in listed.shards] == [seen(shard) for shard in rowed.shards]
        listed.close(), rowed.close()

    def test_children_receive_contiguous_slices_and_out_is_unpermuted(self, tmp_path):
        store, _ = _router(tmp_path / "a", shards=8)
        keys = np.random.default_rng(1).permutation(2000)[:1500]
        store.put_rows(keys, value_rows(keys, 3))
        received = []
        for shard in store.shards:
            inner = shard.get_rows

            def watch(sub_keys, sub_out, _inner=inner):
                received.append((sub_keys, sub_out))
                return _inner(sub_keys, sub_out)

            shard.get_rows = watch
        probe = np.concatenate([keys[:700], np.arange(5000, 5040)])  # the last 40 are absent
        out = np.full((740, WIDTH), 0xEE, dtype=np.uint8)
        found = store.get_rows(probe, out)
        assert len(received) == 8 and sum(len(k) for k, _ in received) == 740
        for sub_keys, sub_out in received:
            assert sub_keys.base is received[0][0].base and sub_out.base is received[0][1].base
            assert sub_out.flags.c_contiguous and not np.shares_memory(sub_out, out)
        assert found.tolist() == [True] * 700 + [False] * 40
        assert (out[:700] == value_rows(probe[:700], 3)).all() and (out[700:] == 0xEE).all()
        store.close()

    def test_a_migration_in_flight_logs_the_writes_of_put_rows(self, tmp_path):
        stores = []
        for name, rows in (("a", False), ("b", True)):
            store, _ = _router(tmp_path / name, shards=2)
            keys = np.arange(400)
            store.multi_put(keys.tolist(), row_values(value_rows(keys, 0)))
            migration = store.begin_split(0, lambda index: _engine("mlkv", tmp_path / name / "t"))
            migration.copy_step(64)
            rewritten = np.arange(0, 400, 3)
            if rows:
                store.put_rows(rewritten, value_rows(rewritten, 9))
            else:
                store.multi_put(rewritten.tolist(), row_values(value_rows(rewritten, 9)))
            stores.append((store, migration, set(migration._delta)))
        assert stores[0][2] == stores[1][2] != set()
        for store, migration, _ in stores:
            migration.cutover()
            expected = value_rows(np.arange(400), 0)
            expected[::3] = value_rows(np.arange(0, 400, 3), 9)
            assert get_listed(store, np.arange(400)) == row_values(expected)
        assert stores[0][0].balance() == stores[1][0].balance()
        for store, _, _ in stores:
            store.close()

    def test_a_replicated_router_serves_rows(self, tmp_path):
        """Replica groups take the base-class verbs under the router's
        override."""
        ssd = SSDModel(SimClock())
        replicated = ShardedKVStore(
            lambda shard: ReplicaGroup(
                [_engine("mlkv", tmp_path / f"s{shard}r{replica}", ssd) for replica in range(2)]
            ),
            2,
        )
        listed, _ = _router(tmp_path / "plain", shards=2)
        keys = np.random.default_rng(2).permutation(500)[:300]
        for store in (replicated, listed):
            store.put_rows(keys, value_rows(keys, 4))
            assert get_listed(store, keys[::-1]) == row_values(value_rows(keys[::-1], 4))
            assert get_listed(store.shards[0], np.arange(600, 620)) == [None] * 20
        assert replicated.stats.puts == 2 * listed.stats.puts
        replicated.close(), listed.close()


# ----------------------------------------------------------------------
# list verbs handed an integer array
# ----------------------------------------------------------------------
class TestListVerbsTakeKeyArrays:
    @pytest.mark.parametrize("length", [1, 15, 16, 64])
    @pytest.mark.parametrize("kind", ["faster", "mlkv", "router", "group"])
    def test_every_length_on_both_sides_of_the_array_threshold(self, tmp_path, kind, length):
        if kind == "router":
            store, _ = _router(tmp_path / "a", shards=2)
        elif kind == "group":
            store = _group(tmp_path / "a", "mlkv")
        else:
            store = _engine(kind, tmp_path / "a")
        keys = np.arange(3, 3 + length)  # int64: ``list(keys)`` would hold NumPy scalars
        values = row_values(value_rows(keys, 1))
        store.multi_put(keys, values)
        assert store.multi_get(keys) == values
        assert store.snapshot_read_many(keys.astype(np.uint64)) == values
        assert store.multi_get(np.arange(3 + length, 6 + length)) == [None] * 3
        store.close()

    def test_the_overflow_table_is_keyed_by_plain_ints(self, tmp_path):
        store = MLKV(str(tmp_path / "a"), memory_budget_bytes=1 << 12, page_bytes=1 << 10)
        keys = np.arange(400)
        store.multi_put(keys, row_values(value_rows(keys, 1)))
        cold = np.array([key for key in range(400) if not store.log.in_memory(store.index.find(key))])
        for batch in (cold[:5], cold[5:60]):  # the per-key loop, then the array path
            store.multi_get(batch)
        store.lookahead(cold[60:64])
        assert len(store._overflow_staleness) == 60
        assert {type(key) for key in store._overflow_staleness} == {int}
        store.checkpoint()
        with open(os.path.join(store.directory, "mlkv.staleness.json")) as f:
            assert sorted(map(int, json.load(f)["overflow"])) == cold[:60].tolist()
        store.close()


# ----------------------------------------------------------------------
# the facade: what it was through lists of bytes
# ----------------------------------------------------------------------
class ListTables(EmbeddingTables):
    """``EmbeddingTables`` with the store calls of the commit before the
    array verbs: keys as lists, rows as one ``bytes`` each."""

    def _fetch_many(self, keys):
        keys = keys.tolist()
        raws = self.store.multi_get(keys)
        missing = [key for key, raw in zip(keys, raws) if raw is None]
        if missing:
            init_rows = np.stack([self.init_vector(key) for key in missing])
            self.store.multi_put(missing, encode_vectors(init_rows))
            refreshed = iter(self.store.multi_get(missing))
            raws = [raw if raw is not None else next(refreshed) for raw in raws]
        return decode_vectors(raws, dim=self.dim)

    def put(self, keys, values):
        class AsLists:  # the one call ``put`` makes on the store
            @staticmethod
            def put_rows(unique, framed, _store=self.store):
                _store.multi_put(unique.tolist(), row_values(framed))

        store, self.store = self.store, AsLists
        try:
            super().put(keys, values)
        finally:
            self.store = store


def _tables(path, cls, bound=ASP_BOUND):
    store = MLKV(str(path), ssd=SSDModel(SimClock()), staleness_bound=bound,
                 memory_budget_bytes=1 << 15, page_bytes=1 << 12)
    tables = cls(store, dim=8, seed=7, cache_entries=256)
    populate = np.arange(0, 900, 3)
    tables.put(populate, np.tile(populate[:, None], (1, 8)).astype(np.float32))
    return tables


def _facade_state(tables) -> tuple:
    store = tables.store
    return (seen(store), store.ssd.stats(), store.mlkv_stats, dict(store._overflow_staleness),
            tables.cache.hits, tables.cache.misses, sorted(tables.cache.keys()))


class TestFacade:
    @pytest.mark.parametrize("warm", [False, True])
    def test_get_and_put_are_what_they_were_through_lists(self, tmp_path, warm):
        rng = np.random.default_rng(8)
        now, was = _tables(tmp_path / "a", EmbeddingTables), _tables(tmp_path / "b", ListTables)
        for step in range(6):
            keys = rng.integers(0, 1200, size=(40, 5))  # stored and never-seen, duplicates
            if step == 3:
                keys = np.unique(keys)  # the sorted-unique shortcut
            values = rng.standard_normal((keys.size, 8)).astype(np.float32)
            for tables in (now, was):
                if warm:
                    tables.lookahead(np.unique(keys)[::3], dest="cache")
            assert (len(now.cache) > 0) == warm
            got, want = now.get(keys), was.get(keys)
            assert got.dtype == np.float32 and got.flags.c_contiguous and got.flags.writeable
            assert got.base is None or not np.shares_memory(got, now.store.log._arena)
            assert np.array_equal(got, want) and got.shape == (*keys.shape, 8)
            assert _facade_state(now) == _facade_state(was)
            now.put(keys, values), was.put(keys, values)
            assert _facade_state(now) == _facade_state(was)
            assert np.array_equal(now.peek(keys), was.peek(keys))
        now.store.checkpoint(), was.store.checkpoint()
        for name in sorted(os.listdir(now.store.directory)):
            with open(os.path.join(now.store.directory, name), "rb") as a, \
                    open(os.path.join(was.store.directory, name), "rb") as b:
                assert a.read() == b.read(), name

    def test_the_returned_matrix_survives_later_puts(self, tmp_path):
        tables = _tables(tmp_path / "a", EmbeddingTables)
        keys = np.arange(0, 300, 3)
        rows = tables.get(keys)
        held = rows.copy()
        tables.put(keys, rows + 1.0)
        assert np.array_equal(rows, held)
        assert np.array_equal(tables.get(keys), held + 1.0)

    def test_a_record_of_another_dimension_is_named(self, tmp_path):
        tables = _tables(tmp_path / "a", EmbeddingTables)
        other = EmbeddingTables(tables.store, dim=4, cache_entries=0)
        with pytest.raises(ValueError, match="key 0 holds 33 bytes, not 17"):
            other.get(np.arange(0, 90, 3))


# ----------------------------------------------------------------------
# Python call events per unique key of a facade cycle
# ----------------------------------------------------------------------
#: Ten ``tables.get`` + ``tables.put`` cycles of 3,668 sorted keys over a
#: resident table, ``sys.setprofile`` "call" + "c_call" events over keys
#: handled (2 x 10 x 3,668).  Repeats exactly: 6,521 events, 0.0889 a key.
#: The commit before the array verbs reads 6,411 (0.0874): what it did per
#: key — a ``memoryview`` slice, a ``len`` under ``map``, a ``bytes`` out of
#: ``tolist`` — ran inside C calls and raised no event.  So this ceiling
#: guards against a per-key *Python* loop coming back, and the two checks
#: beside it pin the rest: none of the list-side callables runs, and at no
#: event of a cycle are more small objects alive than a tenth of the keys
#: (67-192 over the level before the cycle; 7,400 — a ``bytes`` and a list
#: slot per key — at the commit before).
FACADE_CALL_EVENTS_PER_KEY_CEILING = 0.15
LIVE_OBJECTS_PER_KEY_CEILING = 0.1
LIST_SIDE = {"encode_vectors", "decode_vectors", "row_values", "piece_values", "join",
             "multi_get", "multi_put", "_normalize_pairs"}


def test_facade_call_events_per_key_stay_under_the_ceiling(tmp_path):
    store = MLKV(str(tmp_path / "s"), ssd=SSDModel(SimClock()), memory_budget_bytes=64 << 20)
    tables = EmbeddingTables(store, dim=32, cache_entries=0)
    everything = np.arange(104_000)
    tables.put(everything, np.zeros((len(everything), 32), dtype=np.float32))
    rng = np.random.default_rng(0)
    keys = np.unique(rng.integers(0, 104_000, size=3_740))[:3_668]
    values = rng.standard_normal((len(keys), 32)).astype(np.float32)
    events = peak = 0
    called = set()

    def count(frame, event, arg):
        nonlocal events, peak
        peak = max(peak, sys.getallocatedblocks())
        if event in ("call", "c_call"):
            events += 1
            called.add(frame.f_code.co_name if event == "call" else getattr(arg, "__name__", ""))

    tables.get(keys), tables.put(keys, values)  # first touch of the windows
    level = sys.getallocatedblocks()
    sys.setprofile(count)
    try:
        for _ in range(10):
            tables.get(keys)
            tables.put(keys, values)
    finally:
        sys.setprofile(None)
    store.close()
    assert {"get_rows", "put_rows", "_get_runs", "_put_runs"} <= called
    assert not called & LIST_SIDE, called & LIST_SIDE
    assert peak - level <= LIVE_OBJECTS_PER_KEY_CEILING * len(keys), peak - level
    per_key = events / (2 * 10 * len(keys))
    assert per_key <= FACADE_CALL_EVENTS_PER_KEY_CEILING, per_key
