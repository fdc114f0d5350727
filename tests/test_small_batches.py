"""A small batch is served as cheaply as its keys allow, and as exactly as ever.

Three places switch on what a batch holds rather than on one path for all:

* :meth:`HashIndex.find_many` walks each key's probe chain below
  ``WALK_KEYS`` keys and advances all chains as arrays from there on,
  until ``_TAIL_KEYS`` keys are left to walk — the three probes must
  find the same entries on every table;
* the engines' batched read gathers nothing from the arena when no record
  of the batch is resident, and serves a batch whose every record is on
  disk straight from the fetched matrix — the array path's small end must
  equal the per-key loop (``tests/test_batch_native.py``'s ``paired``
  harness) in results, counters, device charges and simulated time;
* the router groups a list's positions by shard with one walk — shards
  are still visited in order of first appearance and repeated keys
  answered in place.
"""

from __future__ import annotations

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.api import KVStore, StoreStats
from repro.kv.common.bloom import _mix64
from repro.kv.faster import hashindex
from repro.kv.faster.hashindex import WALK_KEYS, HashIndex
from repro.kv.faster.store import MIN_ARRAY_BATCH
from repro.kv.sharded import ShardedKVStore, partition_positions, shard_hash
from test_batch_native import KEYS, WIDTH, Pair, on_disk_keys, paired, value_for


# ----------------------------------------------------------------------
# the index: walked probes ≡ array probes ≡ tail-walked probes ≡ find
# ----------------------------------------------------------------------
def every_probe(index: HashIndex, keys: list) -> tuple[list, list, list]:
    """``find_many`` of ``keys``, whatever their number: walked, as array
    passes to the end of every chain, and as one array pass whose keys
    still probing are walked on from there."""
    batch = np.array(keys, dtype=np.uint64)
    with mock.patch.object(hashindex, "WALK_KEYS", len(keys) + 1):
        walked = index.find_many(batch).tolist()
    with mock.patch.object(hashindex, "WALK_KEYS", 0):
        with mock.patch.object(hashindex, "_TAIL_KEYS", 0):
            arrays = index.find_many(batch).tolist()
        with mock.patch.object(hashindex, "_TAIL_KEYS", len(keys) + 1):
            tail_walked = index.find_many(batch).tolist()
    return walked, arrays, tail_walked


def expected(index: HashIndex, keys: list) -> list:
    return [-1 if address is None else address for address in map(index.find, keys)]


@st.composite
def index_histories(draw):
    """A table after inserts and removals (removed slots on probe chains),
    sometimes rebuilt by the last insert, and a batch of keys to look up:
    present, removed and never seen, on both sides of ``WALK_KEYS``."""
    index = HashIndex(initial_slots=draw(st.sampled_from([64, 1024])))
    inserted = draw(st.lists(st.integers(0, 1 << 40), max_size=600, unique=True))
    for address, key in enumerate(inserted):
        index.upsert(key, address)
    removed = draw(st.lists(st.sampled_from(inserted), max_size=80)) if inserted else []
    for key in removed:
        index.remove(key)
    if draw(st.booleans()):  # load the table until the next insert rebuilds it
        slots = index.slot_count
        key = 1 << 41
        while index.slot_count == slots:
            index.upsert(key, key)
            key += 1
    pool = inserted + removed + draw(st.lists(st.integers(0, 1 << 42), max_size=40))
    size = draw(st.sampled_from([0, 1, 7, MIN_ARRAY_BATCH, WALK_KEYS - 1, WALK_KEYS, WALK_KEYS + 9]))
    keys = [draw(st.sampled_from(pool)) for _ in range(size)] if pool else []
    return index, keys


class TestFindMany:
    @settings(max_examples=60, deadline=None)
    @given(history=index_histories())
    def test_walked_and_array_probes_equal_find(self, history):
        index, keys = history
        walked, arrays, tail_walked = every_probe(index, keys)
        assert walked == arrays == tail_walked == expected(index, keys)
        assert index.find_many(np.array(keys, dtype=np.uint64)).tolist() == walked

    def test_a_probe_chain_longer_than_a_batch(self):
        """Eighty keys sharing one home slot, some removed: the last ones
        sit far down one chain, past every removed slot."""
        index = HashIndex(initial_slots=1024)
        mask = index.slot_count - 1
        colliding = [key for key in range(1 << 20) if _mix64(key) & mask == 5][:80]
        for address, key in enumerate(colliding):
            index.upsert(key, address)
        for key in colliding[:60:3]:
            index.remove(key)
        assert index.slot_count == 1024  # no rebuild scattered the chain
        keys = colliding[::-1] + [colliding[0], 7 << 30]
        walked, arrays, tail_walked = every_probe(index, keys)
        assert walked == arrays == tail_walked == expected(index, keys)
        assert walked[0] == 79 and walked[-1] == -1
        with mock.patch.object(hashindex, "WALK_KEYS", 0):  # arrays, then the last 64 walked
            assert index.find_many(np.array(keys, dtype=np.uint64)).tolist() == walked

    def test_the_switch_sits_between_the_two_probes(self):
        """``WALK_KEYS - 1`` keys are walked; ``WALK_KEYS`` go as arrays,
        probed once for the lookup and the swing that follows it."""
        index = HashIndex()
        for key in range(WALK_KEYS):
            index.upsert(key, 10 * key)
        calls, probes = [], []
        real, probe = index._slots_of, index._probe_slots
        with mock.patch.object(index, "_slots_of", lambda keys: calls.append(len(keys)) or real(keys)), \
                mock.patch.object(index, "_probe_slots", lambda keys: probes.append(len(keys)) or probe(keys)):
            for size in (WALK_KEYS - 1, WALK_KEYS):
                keys = np.arange(size, dtype=np.uint64)
                found = index.find_many(keys)
                assert found.tolist() == [index.find(key) for key in range(size)]
                index.swing_many(keys, found + 1)
                assert index.find_many(keys).tolist() == (found + 1).tolist()
        assert calls == [WALK_KEYS] * 3 and probes == [WALK_KEYS]


# ----------------------------------------------------------------------
# the engines: the small end of the array path ≡ the per-key loop
# ----------------------------------------------------------------------
#: Batch lengths at the small end of the array path, and one the loop takes.
SMALL = (MIN_ARRAY_BATCH - 1, MIN_ARRAY_BATCH, MIN_ARRAY_BATCH + 2, 2 * MIN_ARRAY_BATCH + 1)


def resident_keys(pair, count: int) -> list:
    """The ``count`` populated keys newest in the log, all in memory."""
    store = pair.batched.store
    keys = sorted(range(KEYS), key=store.index.find)[-count:]
    assert all(store.log.in_memory(store.index.find(key)) for key in keys)
    return keys


ENGINES = [("faster", None, False), ("mlkv", 2, True)]


@pytest.mark.parametrize("engine, bound, handler", ENGINES)
@pytest.mark.parametrize("length", SMALL)
class TestSmallBatches:
    def check_reads(self, pair, keys, values):
        """A Get and a snapshot read of ``keys`` (and of them reversed),
        compared with the loop by ``Pair.run``: results, stats, device
        counters, simulated time."""
        assert pair.run(("snapshot", keys)) == values
        assert pair.run(("get", keys[::-1])) == values[::-1]

    def test_all_cold(self, engine, bound, handler, length):
        with paired(engine, "thrash", bound, handler) as pair:
            keys = on_disk_keys(pair, length)
            self.check_reads(pair, keys, [value_for(key, 0) for key in keys])

    def test_all_resident(self, engine, bound, handler, length):
        with paired(engine, "evict", bound, handler) as pair:
            keys = resident_keys(pair, length)
            self.check_reads(pair, keys, [value_for(key, 0) for key in keys])

    def test_mixed_and_absent(self, engine, bound, handler, length):
        with paired(engine, "evict", bound, handler) as pair:
            half = length // 2
            keys = on_disk_keys(pair, half) + resident_keys(pair, length - half - 1)
            keys.insert(half // 2, KEYS + 5)
            values = [None if key >= KEYS else value_for(key, 0) for key in keys]
            self.check_reads(pair, keys, values)

    def test_tombstones_and_an_odd_width(self, engine, bound, handler, length):
        """Deleted keys (tombstones on disk, index entries gone) and one
        record of another width among the cold keys of a batch."""
        with paired(engine, "thrash", bound, handler) as pair:
            keys = list(range(length))
            values = [value_for(key, 1, WIDTH + 5 if key == 3 else WIDTH) for key in keys]
            pair.run(("put", keys, values))
            deleted = (1, length - 2)
            for key in deleted:
                pair.run(("delete", key))
            later = list(range(length, KEYS))  # pushes the batch out of the window
            pair.run(("put", later, [value_for(key, 1) for key in later]))
            store = pair.batched.store
            kept = [key for key in keys if key not in deleted]
            assert not any(store.log.in_memory(store.index.find(key)) for key in kept)
            values = [None if key in deleted else value for key, value in zip(keys, values)]
            self.check_reads(pair, keys, values)

    def test_a_cold_record_torn_at_the_end_of_the_file(self, engine, bound, handler, length):
        """The newest record on disk cut short by the file's end: the batch
        serves the keys before it and raises the per-key read's error."""
        with tempfile.TemporaryDirectory() as root:  # no final scan: the log is torn
            pair = Pair(root, engine, "thrash", bound, handler)
            store = pair.batched.store
            on_disk = [key for key in range(KEYS) if not store.log.in_memory(store.index.find(key))]
            keys = sorted(on_disk, key=store.index.find)[-length:]
            last = keys[-1]
            for side in pair.sides:
                side.store.log._file.flush()
                os.truncate(side.store.log.path, side.store.index.find(last) + 30)
            outcome = pair.run(("snapshot", keys))
            assert outcome[0] == "raised" and "log truncated" in outcome[1]
            outcome = pair.run(("get", keys))
            assert outcome[0] == "raised" and "log truncated" in outcome[1]
            for side in pair.sides:
                side.store.close()


@st.composite
def small_batches(draw):
    """1 to ``2 * MIN_ARRAY_BATCH`` distinct keys from anywhere in the
    table, absent ones included."""
    return draw(st.lists(st.integers(0, KEYS + 12), min_size=1,
                         max_size=2 * MIN_ARRAY_BATCH, unique=True))


@pytest.mark.parametrize("engine, bound, handler", ENGINES)
@pytest.mark.parametrize("budget", ["evict", "thrash"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_generated_small_batches(engine, bound, handler, budget, data):
    kinds = ["get", "snapshot", "snapshot", "put"] + (["lookahead", "step"] if engine == "mlkv" else [])
    with paired(engine, budget, bound, handler) as pair:
        for _ in range(data.draw(st.integers(1, 8))):
            kind, keys = data.draw(st.sampled_from(kinds)), data.draw(small_batches())
            if kind in ("put", "step"):
                pair.run((kind, keys, [value_for(key, len(keys)) for key in keys]))
            else:
                pair.run((kind, keys))


# ----------------------------------------------------------------------
# the router: one walk groups a list, the fan-out is what it was
# ----------------------------------------------------------------------
class Recorder(KVStore):
    """A child that answers every key with its own name and logs each call."""

    def __init__(self, name: int, log: list) -> None:
        self.name, self.log = name, log

    def snapshot_read_many(self, keys):
        self.log.append((self.name, list(keys)))
        return [(self.name, key) for key in keys]

    def get(self, key):
        return (self.name, key)

    def put(self, key, value):
        raise NotImplementedError

    def delete(self, key):
        raise NotImplementedError

    def close(self):
        pass

    @property
    def stats(self):
        return StoreStats()


#: Slot tables as the router holds them: fresh, and after a split moved
#: some slots to a new engine.
TABLES = {"fresh": [0, 1, 2, 3], "split": [0, 1, 2, 3, 4, 1, 5, 3]}


@pytest.mark.parametrize("table", sorted(TABLES))
@settings(max_examples=40, deadline=None)
@given(keys=st.lists(st.integers(0, 300), max_size=90))
def test_router_list_fan_out_keeps_order_and_duplicates(table, keys):
    slots = TABLES[table]
    log: list = []
    router = ShardedKVStore(lambda index: Recorder(index, log), max(slots) + 1)
    router._adopt_slots(slots)
    owners = [slots[shard_hash(key) % len(slots)] for key in keys]
    assert router.snapshot_read_many(keys) == list(zip(owners, keys))
    first_seen = list(dict.fromkeys(owners))
    assert [name for name, _ in log] == first_seen
    for name, sub_keys in log:
        assert sub_keys == [key for key, owner in zip(keys, owners) if owner == name]
    assert partition_positions(keys, slots) == {
        shard: [position for position, owner in enumerate(owners) if owner == shard]
        for shard in first_seen
    }
