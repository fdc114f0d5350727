"""FasterKV end-to-end: CRUD, amplification paths, checkpoint/recovery."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import SimClock, SSDModel
from repro.errors import CheckpointError
from repro.kv.faster import FasterKV


def small_store(path, **kwargs):
    defaults = {"memory_budget_bytes": 1 << 14, "page_bytes": 1 << 12}
    defaults.update(kwargs)
    return FasterKV(str(path), **defaults)


class TestCrud:
    def test_get_missing(self, tmp_path):
        with small_store(tmp_path) as store:
            assert store.get(1) is None

    def test_put_get(self, tmp_path):
        with small_store(tmp_path) as store:
            store.put(1, b"one")
            assert store.get(1) == b"one"

    def test_overwrite_same_length_in_place(self, tmp_path):
        with small_store(tmp_path) as store:
            store.put(1, b"aaaa")
            tail_before = store.log.tail_address
            store.put(1, b"bbbb")
            assert store.log.tail_address == tail_before  # in-place
            assert store.get(1) == b"bbbb"

    def test_overwrite_different_length_appends(self, tmp_path):
        with small_store(tmp_path) as store:
            store.put(1, b"aaaa")
            tail_before = store.log.tail_address
            store.put(1, b"bbbbbbbb")
            assert store.log.tail_address > tail_before  # RCU append
            assert store.get(1) == b"bbbbbbbb"

    def test_delete(self, tmp_path):
        with small_store(tmp_path) as store:
            store.put(1, b"x")
            assert store.delete(1)
            assert store.get(1) is None
            assert not store.delete(1)

    def test_multi_get_put(self, tmp_path):
        with small_store(tmp_path) as store:
            store.multi_put([1, 2], [b"a", b"b"])
            assert store.multi_get([2, 1, 3]) == [b"b", b"a", None]
            with pytest.raises(ValueError):
                store.multi_put([1], [b"a", b"b"])

    def test_len_counts_live_keys(self, tmp_path):
        with small_store(tmp_path) as store:
            for i in range(10):
                store.put(i, b"v")
            store.delete(3)
            assert len(store) == 9


class TestOutOfCore:
    def test_spill_and_read_back(self, tmp_path):
        with small_store(tmp_path) as store:
            payloads = {i: bytes([i % 251]) * 64 for i in range(600)}
            for key, value in payloads.items():
                store.put(key, value)
            assert store.log.head_address > 0  # spilled
            for key in range(0, 600, 41):
                assert store.get(key) == payloads[key]

    def test_disk_reads_counted_as_misses(self, tmp_path):
        with small_store(tmp_path) as store:
            for i in range(600):
                store.put(i, bytes(64))
            store.stats.hits = store.stats.misses = 0
            store.get(0)  # long evicted
            assert store.stats.misses == 1
            store.get(599)  # at the tail
            assert store.stats.hits == 1

    def test_clock_charged_for_disk_reads(self, tmp_path):
        ssd = SSDModel(SimClock())
        with small_store(tmp_path, ssd=ssd) as store:
            for i in range(600):
                store.put(i, bytes(64))
            before = ssd.clock.now
            store.get(0)
            assert ssd.clock.now > before

    def test_scan_returns_live_records(self, tmp_path):
        with small_store(tmp_path) as store:
            for i in range(50):
                store.put(i, bytes([i]))
            store.delete(7)
            store.put(3, bytes([99]))
            scanned = dict(store.scan())
            assert 7 not in scanned
            assert scanned[3] == bytes([99])
            assert len(scanned) == 49


class TestRecovery:
    def test_checkpoint_recover_roundtrip(self, tmp_path):
        store = small_store(tmp_path)
        for i in range(300):
            store.put(i, bytes([i % 251]) * 32)
        store.delete(5)
        store.checkpoint()
        store.close()

        recovered = FasterKV.recover(str(tmp_path))
        assert recovered.get(5) is None
        for i in (0, 100, 299):
            if i != 5:
                assert recovered.get(i) == bytes([i % 251]) * 32
        recovered.close()

    def test_recovered_store_accepts_writes(self, tmp_path):
        store = small_store(tmp_path)
        store.put(1, b"a")
        store.checkpoint()
        store.close()
        recovered = FasterKV.recover(str(tmp_path))
        recovered.put(2, b"b")
        assert recovered.get(1) == b"a"
        assert recovered.get(2) == b"b"
        recovered.close()

    def test_recovery_via_log_scan_without_index_file(self, tmp_path):
        store = small_store(tmp_path)
        for i in range(100):
            store.put(i, bytes([i]) * 16)
        store.put(4, bytes([200]) * 16)
        store.delete(9)
        store.checkpoint()
        store.close()
        os.remove(os.path.join(str(tmp_path), "faster.index.bin"))

        recovered = FasterKV.recover(str(tmp_path))
        assert recovered.get(4) == bytes([200]) * 16  # newest version wins
        assert recovered.get(9) is None  # tombstone honored
        assert recovered.get(50) == bytes([50]) * 16
        recovered.close()

    def test_recover_requires_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError):
            FasterKV.recover(str(tmp_path / "nothing"))

    def test_double_checkpoint_idempotent(self, tmp_path):
        store = small_store(tmp_path)
        store.put(1, b"a")
        store.checkpoint()
        store.checkpoint()
        store.close()
        recovered = FasterKV.recover(str(tmp_path))
        assert recovered.get(1) == b"a"
        recovered.close()


class TestModelConformance:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["put", "get", "del"]),
        st.integers(0, 30),
        st.binary(min_size=0, max_size=40),
    ), max_size=120))
    def test_matches_dict_model(self, tmp_path_factory, ops):
        path = tmp_path_factory.mktemp("faster-model")
        model = {}
        with small_store(path) as store:
            for op, key, value in ops:
                if op == "put":
                    store.put(key, value)
                    model[key] = value
                elif op == "get":
                    assert store.get(key) == model.get(key)
                else:
                    assert store.delete(key) == (key in model)
                    model.pop(key, None)
            assert dict(store.scan()) == model
