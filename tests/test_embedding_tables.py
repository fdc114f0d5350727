"""EmbeddingTables facade: batching, lazy init, cache semantics, prefetch."""

import numpy as np
import pytest

from repro.core import MLKV, ASP_BOUND, EmbeddingTables
from repro.errors import ConfigError
from repro.bench import NativeStore


@pytest.fixture
def tables(tmp_path):
    store = MLKV(str(tmp_path / "emb"), staleness_bound=ASP_BOUND,
                 memory_budget_bytes=1 << 16, page_bytes=1 << 12)
    yield EmbeddingTables(store, dim=8, seed=7, cache_entries=64)
    store.close()


class TestGetPut:
    def test_get_shape_follows_keys(self, tables):
        out = tables.get(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 8)

    def test_lazy_init_is_deterministic(self, tables, tmp_path):
        first = tables.get(np.array([5]))
        store2 = MLKV(str(tmp_path / "emb2"), staleness_bound=ASP_BOUND,
                      memory_budget_bytes=1 << 16, page_bytes=1 << 12)
        tables2 = EmbeddingTables(store2, dim=8, seed=7, cache_entries=64)
        np.testing.assert_array_equal(first, tables2.get(np.array([5])))
        store2.close()

    def test_different_seed_different_init(self, tables, tmp_path):
        first = tables.get(np.array([5]))
        store2 = MLKV(str(tmp_path / "emb3"), staleness_bound=ASP_BOUND,
                      memory_budget_bytes=1 << 16, page_bytes=1 << 12)
        tables2 = EmbeddingTables(store2, dim=8, seed=8, cache_entries=64)
        assert not np.allclose(first, tables2.get(np.array([5])))
        store2.close()

    def test_duplicates_share_one_admission(self, tables):
        keys = np.array([1, 1, 1, 2])
        tables.get(keys)
        assert tables.store.staleness_of(1) == 1

    def test_put_roundtrip(self, tables):
        keys = np.arange(10)
        values = np.random.default_rng(0).normal(size=(10, 8)).astype(np.float32)
        tables.get(keys)
        tables.put(keys, values)
        np.testing.assert_allclose(tables.get(keys), values, atol=1e-6)

    def test_put_duplicate_keys_last_wins(self, tables):
        keys = np.array([3, 3])
        values = np.stack([np.zeros(8), np.ones(8)]).astype(np.float32)
        tables.put(keys, values)
        np.testing.assert_array_equal(tables.get(np.array([3]))[0], np.ones(8))

    def test_put_validates_alignment(self, tables):
        with pytest.raises(ConfigError):
            tables.put(np.array([1, 2]), np.zeros((3, 8), dtype=np.float32))

    def test_invalid_dim_rejected(self, tables):
        with pytest.raises(ConfigError):
            EmbeddingTables(tables.store, dim=0)


class TestCacheSemantics:
    def test_cache_entry_is_consumed_once(self, tables):
        tables.lookahead(np.array([1]), dest="cache")
        assert 1 in tables.cache
        tables.get(np.array([1]))  # consumes the entry, no admission
        assert 1 not in tables.cache
        assert tables.store.staleness_of(1) == 1  # from the prefetch only

    def test_uncached_get_admits_through_store(self, tables):
        tables.get(np.array([2]))
        tables.get(np.array([2]))
        assert tables.store.staleness_of(2) == 2

    def test_put_refreshes_pending_cache_entry(self, tables):
        tables.lookahead(np.array([4]), dest="cache")
        new_value = np.full((1, 8), 3.25, dtype=np.float32)
        tables.put(np.array([4]), new_value)
        np.testing.assert_array_equal(tables.get(np.array([4]))[0], new_value[0])


class TestEmptyCache:
    """With nothing prefetched, ``get``/``put`` do not walk the cache key
    by key — and count what the walk would have counted."""

    def _spy(self, tables, monkeypatch) -> list:
        peeks = []
        inner = tables.cache.peek
        monkeypatch.setattr(
            tables.cache, "peek", lambda key, default=None: peeks.append(key) or inner(key, default)
        )
        return peeks

    def test_cold_cache_get_and_put_never_peek(self, tables, monkeypatch):
        peeks = self._spy(tables, monkeypatch)
        keys = np.array([[5, 6, 5], [7, 6, 9]])
        rows = tables.get(keys)
        assert rows.shape == (2, 3, 8)
        np.testing.assert_array_equal(rows[0, 0], rows[0, 2])
        np.testing.assert_array_equal(rows[1, 0], tables.init_vector(7))
        tables.put(keys.reshape(-1), np.ones((6, 8), dtype=np.float32))
        assert peeks == []
        assert (tables.cache.hits, tables.cache.misses) == (0, 4)  # one per unique key
        assert tables.cache.hit_ratio() == 0.0
        assert tables.get(np.array([], dtype=np.int64)).shape == (0, 8)

    def test_counters_equal_the_walked_ones(self, tables, monkeypatch):
        """The same reads with one unrelated entry in the cache take the
        per-key walk: hits and misses come out the same."""
        walked = EmbeddingTables(tables.store, dim=8, seed=7, cache_entries=64)
        walked.cache.put(10_000, [tables.init_vector(10_000), 1])
        peeks = self._spy(walked, monkeypatch)
        for keys in ([1, 2, 3, 2], [3, 4], [9]):
            np.testing.assert_array_equal(tables.get(np.array(keys)), walked.get(np.array(keys)))
        assert len(peeks) == 6
        assert (tables.cache.hits, tables.cache.misses) == (walked.cache.hits, walked.cache.misses)

    def test_warm_cache_still_consumed(self, tables, monkeypatch):
        tables.lookahead(np.array([1]), dest="cache")
        peeks = self._spy(tables, monkeypatch)
        tables.get(np.array([1, 2]))
        assert peeks == [1, 2] and (tables.cache.hits, tables.cache.misses) == (1, 1)


class TestLookahead:
    def _spill(self, tables, count=3000):
        keys = np.arange(count)
        tables.put(keys, np.zeros((count, 8), dtype=np.float32))
        return keys

    def test_buffer_dest_stages_into_store(self, tables):
        count = len(self._spill(tables))
        store = tables.store
        cold = [k for k in range(count) if not store.log.in_memory(store.index.find(k))]
        assert cold, "working set must exceed the memory budget"
        moved = tables.lookahead(np.array(cold[:10]), dest="buffer")
        assert moved == 10

    def test_cache_dest_fills_application_cache(self, tables):
        moved = tables.lookahead(np.array([7, 8]), dest="cache")
        assert moved == 2
        assert 7 in tables.cache and 8 in tables.cache

    def test_cache_dest_idempotent(self, tables):
        tables.lookahead(np.array([7]), dest="cache")
        assert tables.lookahead(np.array([7]), dest="cache") == 0

    def test_unknown_dest_rejected(self, tables):
        with pytest.raises(ConfigError):
            tables.lookahead(np.array([1]), dest="nowhere")

    def test_buffer_dest_noop_for_plain_stores(self):
        store = NativeStore()
        plain = EmbeddingTables(store, dim=4, cache_entries=8)
        plain.get(np.array([1]))
        assert plain.lookahead(np.array([1]), dest="buffer") == 0


class TestPeek:
    def test_peek_returns_committed_without_admission(self, tables):
        keys = np.array([1, 2])
        tables.get(keys)
        tables.put(keys, np.ones((2, 8), dtype=np.float32))
        before = tables.store.staleness_of(1)
        out = tables.peek(keys)
        np.testing.assert_array_equal(out, np.ones((2, 8), dtype=np.float32))
        assert tables.store.staleness_of(1) == before

    def test_peek_unseen_key_uses_lazy_init_without_insert(self, tables):
        out = tables.peek(np.array([99]))
        assert out.shape == (1, 8)
        assert tables.store.get(99) is None  # not inserted

    def test_peek_matches_get_for_unseen(self, tables):
        peeked = tables.peek(np.array([123]))
        fetched = tables.get(np.array([123]))
        np.testing.assert_array_equal(peeked, fetched)
