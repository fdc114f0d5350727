"""Hash index behaviour: probing, growth, CAS, model conformance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.common.bloom import _mix64
from repro.kv.faster.hashindex import WALK_KEYS, HashIndex


def keys_of(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


class TestHashIndex:
    def test_find_missing(self):
        assert HashIndex().find(7) is None

    def test_upsert_and_find(self):
        index = HashIndex()
        index.upsert(7, 100)
        index.upsert(8, 200)
        assert index.find(7) == 100
        assert index.find(8) == 200

    def test_upsert_overwrites(self):
        index = HashIndex()
        index.upsert(7, 100)
        index.upsert(7, 300)
        assert index.find(7) == 300
        assert len(index) == 1

    def test_remove(self):
        index = HashIndex()
        index.upsert(7, 100)
        assert index.remove(7)
        assert not index.remove(7)
        assert index.find(7) is None

    def test_grows_under_load(self):
        index = HashIndex(initial_slots=64)
        for key in range(5000):
            index.upsert(key, key)
        assert index.slot_count > 64
        assert all(index.find(key) == key for key in range(0, 5000, 97))

    def test_compare_exchange_success(self):
        index = HashIndex()
        index.upsert(1, 10)
        assert index.compare_exchange(1, 10, 20)
        assert index.find(1) == 20

    def test_compare_exchange_failure_on_race(self):
        index = HashIndex()
        index.upsert(1, 10)
        index.upsert(1, 15)  # concurrent update
        assert not index.compare_exchange(1, 10, 20)
        assert index.find(1) == 15

    def test_compare_exchange_insert_when_expected_none(self):
        index = HashIndex()
        assert index.compare_exchange(5, None, 50)
        assert index.find(5) == 50

    def test_items_complete(self):
        index = HashIndex()
        entries = {key: key * 2 for key in range(100)}
        for key, address in entries.items():
            index.upsert(key, address)
        assert dict(index.items()) == entries

    def test_invalid_slot_count(self):
        with pytest.raises(ValueError):
            HashIndex(initial_slots=3)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["put", "del"]),
                              st.integers(0, 40), st.integers(0, 10_000))))
    def test_matches_dict_model(self, ops):
        index = HashIndex(initial_slots=4)
        model = {}
        for op, key, address in ops:
            if op == "put":
                index.upsert(key, address)
                model[key] = address
            else:
                assert index.remove(key) == (key in model)
                model.pop(key, None)
        assert dict(index.items()) == model
        assert len(index) == len(model)


class TestBatchedIndex:
    def test_find_many_marks_absent_keys(self):
        index = HashIndex()
        index.upsert(7, 100)
        index.upsert(9, 0)  # address 0 is a real address, not "absent"
        found = index.find_many(keys_of([9, 8, 7]))
        assert found.dtype == np.int64
        assert found.tolist() == [0, -1, 100]

    def test_find_many_empty_batch(self):
        assert HashIndex().find_many(keys_of([])).tolist() == []

    def test_find_many_follows_probe_chains(self):
        # Four slots at load <= 1/2: two keys, most pairs collide or abut.
        for first in range(40):
            index = HashIndex(initial_slots=4)
            index.upsert(first, 1)
            index.upsert(first + 1, 2)
            assert index.find_many(keys_of([first + 1, first, first + 2])).tolist() == [2, 1, -1]

    def test_find_many_skips_removed_slots(self):
        index = HashIndex(initial_slots=64)
        for key in range(20):
            index.upsert(key, key + 1000)
        for key in range(0, 20, 2):
            index.remove(key)
        expected = [-1 if key % 2 == 0 else key + 1000 for key in range(20)]
        assert index.find_many(keys_of(range(20))).tolist() == expected

    def test_removed_slot_is_reused(self):
        index = HashIndex(initial_slots=8)
        for round_no in range(200):  # never more than one live key
            index.upsert(round_no, round_no)
            assert index.remove(round_no)
        assert len(index) == 0 and index.slot_count == 8

    def test_upsert_many_inserts_and_overwrites(self):
        index = HashIndex()
        index.upsert(3, 30)
        index.upsert_many(keys_of([1, 2, 3]), np.array([10, 20, 31], dtype=np.int64))
        assert dict(index.items()) == {1: 10, 2: 20, 3: 31}
        assert len(index) == 3

    def test_upsert_many_last_duplicate_wins(self):
        index = HashIndex()
        index.upsert_many(keys_of([5, 6, 5, 5]), np.array([1, 2, 3, 4], dtype=np.int64))
        assert dict(index.items()) == {5: 4, 6: 2}

    def test_upsert_many_grows_once_for_the_batch(self):
        index = HashIndex(initial_slots=4)
        keys = keys_of(range(10_000))
        index.upsert_many(keys, keys.astype(np.int64) * 2)
        assert len(index) == 10_000
        assert index.slot_count >= 2 * 10_000
        assert index.find_many(keys).tolist() == list(range(0, 20_000, 2))
        assert index.find(9_999) == 19_998

    def test_full_key_range(self):
        index = HashIndex()
        top = (1 << 64) - 1
        index.upsert(top, 5)
        assert index.find(top) == 5
        assert index.find_many(keys_of([top, top - 1])).tolist() == [5, -1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("put"), st.integers(0, 60), st.integers(0, 10_000)),
        st.tuples(st.just("del"), st.integers(0, 60), st.just(0)),
        st.tuples(st.just("put_many"),
                  st.lists(st.integers(0, 60), max_size=30), st.integers(0, 10_000)),
    )))
    def test_batched_and_scalar_ops_match_dict_model(self, ops):
        index = HashIndex(initial_slots=4)  # small: collisions, growth, rebuilds
        model = {}
        for op, key, address in ops:
            if op == "put":
                index.upsert(key, address)
                model[key] = address
            elif op == "del":
                assert index.remove(key) == (key in model)
                model.pop(key, None)
            else:
                addresses = [address + offset for offset in range(len(key))]
                index.upsert_many(keys_of(key), np.array(addresses, dtype=np.int64))
                model.update(zip(key, addresses))
            probe = list(range(62))
            expected = [model.get(k, -1) for k in probe]
            assert index.find_many(keys_of(probe)).tolist() == expected
            assert [index.find(k) for k in probe] == [model.get(k) for k in probe]
        assert dict(index.items()) == model
        assert len(index) == len(model)
        keys, addresses = index.entries()
        assert dict(zip(keys.tolist(), addresses.tolist())) == model


class TestSwingMany:
    """The present-keys-only address swing: addresses change, the table
    does not."""

    def loaded(self, keys: int = 500):
        index = HashIndex()  # 1024 slots, rebuilt once more than 512 are used
        for key in range(keys):
            index.upsert(key * 7919, key)
        return index

    def test_equals_scalar_upserts_of_present_keys(self):
        swung, looped = self.loaded(), self.loaded()
        keys = keys_of([key * 7919 for key in range(0, 500, 3)])
        addresses = np.arange(len(keys), dtype=np.int64) + 10_000
        swung.swing_many(keys, addresses)
        for key, address in zip(keys.tolist(), addresses.tolist()):
            looped.upsert(key, address)
        assert [array.tolist() for array in swung.entries()] == [
            array.tolist() for array in looped.entries()
        ]
        assert (len(swung), swung.slot_count) == (len(looped), looped.slot_count)

    def test_never_rebuilds_where_upsert_many_would(self):
        """``upsert_many`` makes room for its whole batch before it knows
        the keys are there already; a rebuild re-places every entry."""
        index, pregrown = self.loaded(), self.loaded()
        layout = index.entries()[0].tolist()
        keys = keys_of([key * 7919 for key in range(100)])
        addresses = np.arange(100, dtype=np.int64) + 10_000
        index.swing_many(keys, addresses)
        assert index.slot_count == 1024 and index.entries()[0].tolist() == layout
        assert index.find_many(keys).tolist() == addresses.tolist()
        assert len(index) == 500
        pregrown.upsert_many(keys, addresses)
        assert pregrown.slot_count > 1024 and pregrown.entries()[0].tolist() != layout

    def test_removed_slots_and_accounting_are_left_alone(self):
        index = self.loaded(300)
        for key in range(0, 300, 2):
            index.remove(key * 7919)
        used = index._used
        keys = keys_of([key * 7919 for key in range(1, 300, 2)])
        index.swing_many(keys, np.full(150, 42, dtype=np.int64))
        assert (index._used, len(index)) == (used, 150)
        assert index.find_many(keys).tolist() == [42] * 150
        assert index.find(0) is None

    def test_absent_key_rejected_before_anything_is_written(self):
        index = self.loaded(10)
        before = [array.tolist() for array in index.entries()]
        with pytest.raises(KeyError):
            index.swing_many(keys_of([0, 1, 7919]), np.array([5, 6, 7], dtype=np.int64))
        assert [array.tolist() for array in index.entries()] == before

    def test_empty_batch(self):
        index = self.loaded(10)
        index.swing_many(keys_of([]), np.empty(0, dtype=np.int64))
        assert len(index) == 10

    @pytest.mark.parametrize("count", [50, 450])  # walked, then array passes (WALK_KEYS)
    def test_negative_addresses_leave_their_keys_alone(self, count):
        """The batch a caller looked up, every third key swung; the keys
        left alone include absent ones."""
        index = self.loaded()
        keys = keys_of([key * 7919 for key in range(count)] + [7919 * 1000 + 1, 3])
        before = index.find_many(keys)
        addresses = np.full(len(keys), -1, dtype=np.int64)
        addresses[:count:3] = np.arange(0, count, 3) + 10_000
        index.swing_many(keys, addresses)
        assert index.find_many(keys).tolist() == np.where(addresses >= 0, addresses, before).tolist()
        assert len(index) == 500 and index.slot_count == 1024

    @pytest.mark.parametrize("count", [50, 400])  # walked, then array passes (WALK_KEYS)
    def test_a_swing_after_a_rebuild_finds_the_keys_again(self, count):
        """The batch was looked up before fresh keys rebuilt the table:
        its keys sit in other slots by the swing."""
        index = self.loaded(400)
        keys = keys_of([key * 7919 for key in range(count)])
        index.find_many(keys)
        slot_count = index.slot_count
        fresh = keys_of([key * 7919 + 1 for key in range(200)])
        index.insert_absent_many(fresh, np.arange(200, dtype=np.int64))
        assert index.slot_count > slot_count
        addresses = np.arange(len(keys), dtype=np.int64) + 10_000
        index.swing_many(keys, addresses)
        assert index.find_many(keys).tolist() == addresses.tolist()
        assert index.find_many(fresh).tolist() == list(range(200))
        assert len(index) == 600

    @pytest.mark.parametrize("count", [50, 450])  # walked, then array passes (WALK_KEYS)
    def test_a_key_removed_since_the_lookup_is_rejected(self, count):
        """The lookup found the key; a swing at the slot it found would
        bring the removed key back."""
        index = self.loaded()
        keys = keys_of([key * 7919 for key in range(count)])
        index.find_many(keys)
        assert index.remove(7919 * 7)
        before = [array.tolist() for array in index.entries()]
        with pytest.raises(KeyError):
            index.swing_many(keys, np.arange(len(keys), dtype=np.int64) + 10_000)
        assert [array.tolist() for array in index.entries()] == before
        assert index.find(7919 * 7) is None


def slot_state(index: HashIndex) -> tuple:
    """Everything a looped ``upsert`` leaves behind, slot for slot."""
    return (index._keys.tolist(), index._addresses.tolist(), index._used, index._size,
            index.slot_count)


class TestInsertAbsentMany:
    """Fresh keys in one pass ≡ a looped ``upsert``, slot for slot."""

    def history(self, initial_slots: int, inserted, removed) -> HashIndex:
        index = HashIndex(initial_slots=initial_slots)
        for address, key in enumerate(inserted):
            index.upsert(key, address)
        for key in removed:
            index.remove(key)
        return index

    def assert_equal_to_loop(self, initial_slots, inserted, removed, batch) -> HashIndex:
        batched = self.history(initial_slots, inserted, removed)
        looped = self.history(initial_slots, inserted, removed)
        addresses = np.arange(len(batch), dtype=np.int64) + 50_000
        batched.insert_absent_many(keys_of(batch), addresses)
        for key, address in zip(batch, addresses.tolist()):
            looped.upsert(key, address)
        assert slot_state(batched) == slot_state(looped)
        return batched

    def test_empty_batch(self):
        index = self.assert_equal_to_loop(64, [1, 2, 3], [], [])
        assert len(index) == 3

    def test_removed_slots_are_taken_before_later_empty_ones(self):
        """Keys sharing one home slot, every other one removed: the
        batch refills the removed slots, in order, before the chain's end."""
        mask = 1024 - 1
        colliding = [key for key in range(1 << 20) if _mix64(key) & mask == 9][:40]
        removed = colliding[:30:2]
        index = self.assert_equal_to_loop(1024, colliding[:30], removed, removed[::-1] + colliding[30:])
        assert index._used == 40 and index.slot_count == 1024
        assert index.find_many(keys_of(colliding)).tolist() == [index.find(key) for key in colliding]

    def test_reinserted_removed_keys_and_new_ones(self):
        inserted = [key * 7919 for key in range(200)]
        removed = inserted[::3]
        batch = removed[::2] + [key * 7919 + 1 for key in range(100)]
        self.assert_equal_to_loop(1024, inserted, removed, batch)

    def test_the_load_limit_crossed_once(self):
        """64 slots rebuild past 32 used; the looped rebuild at the 33rd key
        grows to 128, whereas one after the whole batch would need 256."""
        index = self.assert_equal_to_loop(64, list(range(20)), [3, 7], [100 + key for key in range(26)])
        assert index.slot_count == 128

    def test_the_load_limit_crossed_twice(self):
        index = self.assert_equal_to_loop(64, list(range(20)), [3, 7], [100 + key for key in range(60)])
        assert index.slot_count == 256

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generated_histories(self, data):
        initial_slots = data.draw(st.sampled_from([4, 64, 1024]))
        inserted = data.draw(st.lists(st.integers(0, 1 << 40), max_size=300, unique=True))
        removed = data.draw(st.lists(st.sampled_from(inserted), max_size=60, unique=True)) if inserted else []
        fresh = data.draw(st.lists(st.integers(0, 1 << 40), max_size=300, unique=True))
        live = set(inserted) - set(removed)
        batch = [key for key in removed + fresh if key not in live]
        batch = list(dict.fromkeys(data.draw(st.permutations(batch))))
        self.assert_equal_to_loop(initial_slots, inserted, removed, batch)


class TestRememberedLookups:
    """A long lookup's slots are handed out again for the same keys until
    a key takes or leaves a slot; the answers are a fresh ``find``'s."""

    #: Keys looked up: present, removed below, and never inserted.
    PROBE = keys_of([key * 7919 for key in range(WALK_KEYS + 100)] + [3, 5, 1 << 50])

    def loaded(self) -> HashIndex:
        index = HashIndex(initial_slots=4096)  # rebuilt once 2,048 slots are used
        for key in range(WALK_KEYS):
            index.upsert(key * 7919, key)
        return index

    def assert_fresh(self, index: HashIndex) -> None:
        """Twice (the second from what the first left remembered): the
        lookup verbs ≡ a ``find`` loop, absent keys included."""
        expected = [-1 if found is None else found for found in map(index.find, self.PROBE.tolist())]
        for _ in range(2):
            assert index.find_many(self.PROBE).tolist() == expected
            slots = index._slots_of(self.PROBE)
            present = np.array(expected) >= 0
            assert (slots[~present] == -1).all()
            assert index._keys[slots[present]].tolist() == self.PROBE[present].tolist()

    def test_a_repeat_lookup_probes_nothing(self, monkeypatch):
        index = self.loaded()
        self.assert_fresh(index)
        monkeypatch.setattr(index, "_probe_slots", None)  # any probe now raises
        self.assert_fresh(index)

    def test_insert_absent_many(self):
        index = self.loaded()
        self.assert_fresh(index)
        fresh = self.PROBE[-3:]
        index.insert_absent_many(fresh, np.array([7, 8, 9], dtype=np.int64))
        self.assert_fresh(index)
        assert index.find_many(self.PROBE)[-3:].tolist() == [7, 8, 9]

    def test_upsert_of_a_fresh_key(self):
        index = self.loaded()
        self.assert_fresh(index)
        index.upsert(5, 55)
        self.assert_fresh(index)
        assert index.find(5) == 55

    def test_remove(self):
        index = self.loaded()
        self.assert_fresh(index)
        for key in self.PROBE[:WALK_KEYS:7].tolist():
            assert index.remove(key)
        self.assert_fresh(index)
        assert (index.find_many(self.PROBE)[:WALK_KEYS:7] == -1).all()

    def test_upsert_many(self):
        index = self.loaded()
        self.assert_fresh(index)
        keys = keys_of([3, 7919 * 2, 1 << 50])
        index.upsert_many(keys, np.array([30, 31, 32], dtype=np.int64))
        self.assert_fresh(index)
        assert index.find_many(self.PROBE)[[2, -3, -1]].tolist() == [31, 30, 32]

    def test_rebuild(self):
        index = self.loaded()
        self.assert_fresh(index)
        fresh = keys_of([key * 7919 + 1 for key in range(2000)])
        index.insert_absent_many(fresh, np.arange(2000, dtype=np.int64))
        assert index.slot_count > 4096
        self.assert_fresh(index)

    def test_overwrites_keep_the_slots_and_show_the_new_addresses(self):
        index = self.loaded()
        slots = index._slots_of(self.PROBE)
        new = np.arange(0, WALK_KEYS, 3, dtype=np.int64) + 100_000
        addresses = np.full(len(self.PROBE), -1, dtype=np.int64)
        addresses[:WALK_KEYS:3] = new
        index.swing_many(self.PROBE, addresses)
        index.upsert(int(self.PROBE[1]), 77)  # present: only its address changes
        assert index._slots_of(self.PROBE) is slots  # still remembered
        self.assert_fresh(index)
        found = index.find_many(self.PROBE)
        assert found[:WALK_KEYS:3].tolist() == new.tolist() and found[1] == 77

    def test_the_slots_handed_out_are_read_only(self):
        index = self.loaded()
        slots = index._slots_of(self.PROBE)
        with pytest.raises(ValueError):
            slots[0] = 1
        again = index._slots_of(self.PROBE.copy())
        with pytest.raises(ValueError):
            again[0] = 1
        self.assert_fresh(index)

    def test_the_keys_are_copied_when_remembered(self):
        index = self.loaded()
        keys = self.PROBE.copy()
        index.find_many(keys)
        keys[:] = keys[::-1]  # the caller reuses its array
        assert index.find_many(keys).tolist() == [
            -1 if found is None else found for found in map(index.find, keys.tolist())
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_a_random_history_matches_a_dict(self, seed):
        """Long lookups of a few recurring key sets between every kind of
        write, checked against a dict after each step."""
        rng = np.random.default_rng(seed)
        index = HashIndex(initial_slots=1024)
        model: dict = {}
        universe = rng.choice(1 << 40, size=3000, replace=False).astype(np.uint64)
        sets = [rng.choice(universe, size=WALK_KEYS + 50 * n, replace=False) for n in range(12)]
        next_address = 0
        for _ in range(120):
            action = rng.integers(7)
            keys = universe[rng.choice(len(universe), size=int(rng.integers(1, 40)), replace=False)]
            addresses = np.arange(next_address, next_address + len(keys), dtype=np.int64)
            next_address += len(keys)
            if action == 0:
                key, address = int(keys[0]), int(addresses[0])
                index.upsert(key, address)
                model[key] = address
            elif action == 1:
                key = int(keys[0])
                assert index.remove(key) == (key in model)
                model.pop(key, None)
            elif action == 2:
                absent = np.array([key not in model for key in keys.tolist()])
                index.insert_absent_many(keys[absent], addresses[absent])
                model.update(zip(keys[absent].tolist(), addresses[absent].tolist()))
            elif action == 3:
                index.upsert_many(keys, addresses)
                model.update(zip(keys.tolist(), addresses.tolist()))
            elif action in (4, 5):  # a lookup, then a swing of some keys it found
                keys = sets[rng.integers(len(sets))] if action == 5 else keys
                index.find_many(keys)
                swung = np.array([key in model for key in keys.tolist()]) & (rng.random(len(keys)) < 0.5)
                addresses = np.where(swung, next_address + np.arange(len(keys)), -1)
                next_address += len(keys)
                index.swing_many(keys, addresses)
                model.update(zip(keys[swung].tolist(), addresses[swung].tolist()))
            for probe in (sets[rng.integers(len(sets))], sets[rng.integers(3)]):
                expected = [model.get(key, -1) for key in probe.tolist()]
                assert index.find_many(probe).tolist() == expected
        assert dict(index.items()) == model
