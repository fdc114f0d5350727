"""Skiplist, bloom filter, caches and serialization (incl. property tests)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.common import (
    BloomFilter,
    ClockCache,
    LRUCache,
    SkipList,
    decode_record,
    decode_vector,
    encode_record,
    encode_vector,
)
from repro.kv.common.serialization import record_size


class TestSkipList:
    def test_insert_get(self):
        sl = SkipList()
        sl.insert(5, "five")
        sl.insert(1, "one")
        assert sl.get(5) == "five"
        assert sl.get(1) == "one"
        assert sl.get(2) is None

    def test_overwrite_keeps_size(self):
        sl = SkipList()
        sl.insert(1, "a")
        sl.insert(1, "b")
        assert len(sl) == 1
        assert sl.get(1) == "b"

    def test_remove(self):
        sl = SkipList()
        sl.insert(1, "a")
        assert sl.remove(1)
        assert not sl.remove(1)
        assert sl.get(1) is None
        assert len(sl) == 0

    def test_items_sorted(self):
        sl = SkipList()
        for key in [5, 3, 9, 1, 7]:
            sl.insert(key, key * 10)
        assert [k for k, _ in sl.items()] == [1, 3, 5, 7, 9]

    def test_contains(self):
        sl = SkipList()
        sl.insert(3, None)  # None values are legal
        assert 3 in sl
        assert 4 not in sl

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["put", "del"]),
                              st.integers(0, 50), st.integers(0, 1000))))
    def test_matches_dict_model(self, ops):
        sl = SkipList()
        model = {}
        for op, key, value in ops:
            if op == "put":
                sl.insert(key, value)
                model[key] = value
            else:
                assert sl.remove(key) == (key in model)
                model.pop(key, None)
        assert dict(sl.items()) == model
        assert sorted(model) == [k for k, _ in sl.items()]


class TestBloomFilter:
    def test_no_false_negatives_basic(self):
        bloom = BloomFilter(capacity=100)
        for key in range(0, 1000, 10):
            bloom.add(key)
        assert all(bloom.may_contain(key) for key in range(0, 1000, 10))

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(0, 2**63 - 1), max_size=200))
    def test_no_false_negatives_property(self, keys):
        bloom = BloomFilter(capacity=max(1, len(keys)))
        for key in keys:
            bloom.add(key)
        assert all(bloom.may_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(capacity=1000, bits_per_key=10)
        for key in range(1000):
            bloom.add(key)
        false_hits = sum(bloom.may_contain(key) for key in range(10_000, 30_000))
        assert false_hits / 20_000 < 0.05

    def test_roundtrip_serialization(self):
        bloom = BloomFilter(capacity=64)
        for key in (3, 1415, 92653):
            bloom.add(key)
        clone = BloomFilter.from_bytes(bloom.to_bytes(), bloom.num_bits, bloom.num_hashes)
        assert all(clone.may_contain(k) for k in (3, 1415, 92653))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, bits_per_key=0)


class TestLRUCache:
    def test_basic_get_put(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b", "missing") == "missing"

    def test_evicts_least_recent(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_eviction_callback(self):
        evicted = []
        cache = LRUCache(1, on_evict=lambda k, v: evicted.append((k, v)))
        cache.put("a", 1)
        cache.put("b", 2)
        assert evicted == [("a", 1)]

    def test_zero_capacity_stores_nothing(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert "a" not in cache

    def test_zero_capacity_writes_through(self):
        """capacity=0 must not silently drop values: on_evict still fires,
        so dirty-page write-back survives a cacheless configuration."""
        written_back = []
        cache = LRUCache(0, on_evict=lambda k, v: written_back.append((k, v)))
        cache.put("dirty", 42)
        assert "dirty" not in cache
        assert written_back == [("dirty", 42)]

    def test_peek_does_not_touch_recency_or_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        hits_before = cache.hits
        assert cache.peek("a") == 1
        assert cache.hits == hits_before
        cache.put("c", 3)  # "a" is still least-recent → evicted
        assert "a" not in cache

    def test_hit_ratio(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hit_ratio() == pytest.approx(0.5)

    def test_pop(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a", "gone") == "gone"

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["get", "put"]), st.integers(0, 8))))
    def test_never_exceeds_capacity(self, ops):
        cache = LRUCache(3)
        for op, key in ops:
            if op == "put":
                cache.put(key, key)
            else:
                value = cache.get(key)
                assert value is None or value == key
            assert len(cache) <= 3


class TestClockCache:
    def test_basic(self):
        cache = ClockCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("z") is None

    def test_second_chance_protects_referenced(self):
        cache = ClockCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # reference bit set on a
        cache.put("c", 3)  # b (unreferenced) should go first
        assert "a" in cache
        assert "b" not in cache

    def test_eviction_callback_fires(self):
        evicted = []
        cache = ClockCache(1, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", 1)
        cache.put("b", 2)
        assert evicted == ["a"]

    def test_update_existing_key(self):
        cache = ClockCache(2)
        cache.put("a", 1)
        cache.put("a", 9)
        assert cache.get("a") == 9
        assert len(cache) == 1

    def test_pop_then_reuse_slot(self):
        cache = ClockCache(2)
        cache.put("a", 1)
        cache.pop("a")
        cache.put("b", 2)
        cache.put("c", 3)
        cache.put("d", 4)
        assert len(cache) <= 2

    def test_capacity_bound_holds(self):
        cache = ClockCache(4)
        for i in range(100):
            cache.put(i, i)
            assert len(cache) <= 4

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ClockCache(-1)

    def test_zero_capacity_writes_through(self):
        """capacity=0 must not silently drop values: on_evict still fires."""
        written_back = []
        cache = ClockCache(0, on_evict=lambda k, v: written_back.append((k, v)))
        cache.put("dirty", 42)
        assert "dirty" not in cache
        assert written_back == [("dirty", 42)]


class TestSerialization:
    def test_record_roundtrip(self):
        data = encode_record(42, b"hello")
        key, value, offset = decode_record(data)
        assert (key, value, offset) == (42, b"hello", len(data))

    def test_record_sequence_decoding(self):
        buffer = encode_record(1, b"a") + encode_record(2, b"bb")
        key1, value1, offset = decode_record(buffer)
        key2, value2, end = decode_record(buffer, offset)
        assert (key1, value1, key2, value2) == (1, b"a", 2, b"bb")
        assert end == len(buffer)

    def test_truncated_record_raises(self):
        data = encode_record(1, b"abcdef")[:-2]
        with pytest.raises(ValueError):
            decode_record(data)

    def test_truncated_header_raises(self):
        data = encode_record(7, b"abcdef")
        for cut in (0, 6, 11):
            with pytest.raises(ValueError):
                decode_record(data[:cut])

    def test_walk_stops_at_the_torn_record(self):
        rng = np.random.default_rng(3)
        records = [(int(key), rng.bytes(int(length)))
                   for key, length in zip(rng.integers(0, 1 << 48, 10), rng.integers(0, 40, 10))]
        torn = b"".join(encode_record(key, value) for key, value in records)[:-1]
        offset, walked = 0, []
        with pytest.raises(ValueError):
            while offset < len(torn):
                key, value, offset = decode_record(torn, offset)
                walked.append((key, value))
        assert walked == records[:-1]

    def test_huge_keys_use_full_uint64_range(self):
        for key in (2**63, 2**64 - 1):
            assert decode_record(encode_record(key, b"xy"))[:2] == (key, b"xy")

    def test_memoryview_value_encodes_like_bytes(self):
        buffer = b"0123456789"
        assert encode_record(5, memoryview(buffer)[2:6]) == encode_record(5, b"2345")

    def test_decode_from_a_mutable_buffer_at_an_offset(self):
        scratch = bytearray(b"\xee" * 11) + encode_record(9, b"") + encode_record(3, b"abc")
        key, value, offset = decode_record(memoryview(scratch), 11)
        assert (key, value) == (9, b"")
        key, value, end = decode_record(scratch, offset)
        assert (key, value, end) == (3, b"abc", len(scratch))
        assert type(value) is bytes
        scratch[-1:] = b"z"  # the decoded value does not alias the buffer
        assert value == b"abc"

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            encode_record(-1, b"")

    def test_record_size(self):
        assert record_size(5) == len(encode_record(0, b"12345"))

    def test_vector_roundtrip(self):
        vec = np.arange(8, dtype=np.float32) / 3.0
        out = decode_vector(encode_vector(vec))
        np.testing.assert_array_equal(out, vec)

    def test_vector_dim_validation(self):
        blob = encode_vector(np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError):
            decode_vector(blob, dim=8)

    def test_vector_rejects_matrices(self):
        with pytest.raises(ValueError):
            encode_vector(np.zeros((2, 2), dtype=np.float32))

    def test_vector_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_vector(b"\xffgarbage")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, width=32), min_size=1, max_size=64))
    def test_vector_roundtrip_property(self, values):
        vec = np.array(values, dtype=np.float32)
        np.testing.assert_array_equal(decode_vector(encode_vector(vec)), vec)
