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


class TestSortedUniqueShortcut:
    """Strictly increasing 1-D keys skip ``np.unique`` and the row gather;
    the store must not be able to tell (same calls, same key lists, same
    counters, same simulated clock) and the values must be the ones the
    general path returns for the same keys shuffled and repeated."""

    CALLS = ("get_rows", "put_rows", "snapshot_read_many", "lookahead")

    def _stack(self, path):
        from repro.device import SimClock, SSDModel

        clock = SimClock()
        store = MLKV(str(path), ssd=SSDModel(clock), staleness_bound=ASP_BOUND,
                     memory_budget_bytes=1 << 14, page_bytes=1 << 12)
        tables = EmbeddingTables(store, dim=8, seed=7, cache_entries=64)
        populate = np.arange(0, 400, 3)
        tables.put(populate, np.tile(populate[:, None], (1, 8)).astype(np.float32))
        log = []
        for name in self.CALLS:
            def spy(keys, *rest, _inner=getattr(store, name), _name=name):
                log.append((_name, list(keys)))
                return _inner(keys, *rest)
            setattr(store, name, spy)
        return tables, log

    @staticmethod
    def _observed(tables, log):
        store = tables.store
        return (log, store.stats, store.ssd.stats(), store.clock.now,
                tables.cache.hits, tables.cache.misses, sorted(tables.cache.keys()))

    @pytest.mark.parametrize("warm", [False, True])
    def test_sorted_keys_equal_the_same_keys_shuffled_with_duplicates(self, tmp_path, warm):
        rng = np.random.default_rng(3)
        keys = np.unique(rng.integers(0, 500, size=90))  # stored and never-seen keys
        shuffled = rng.permutation(np.concatenate([keys, keys[::4], keys[:9]]))
        straight, straight_log = self._stack(tmp_path / "a")
        general, general_log = self._stack(tmp_path / "b")
        last = len(shuffled) - 1 - np.unique(shuffled[::-1], return_index=True)[1]
        values = rng.standard_normal((len(keys), 8)).astype(np.float32)
        noisy = rng.standard_normal((len(shuffled), 8)).astype(np.float32)
        noisy[last] = values  # the last occurrence of each key carries its row
        for tables in (straight, general):
            if warm:
                tables.lookahead(keys[::2].copy(), dest="cache")
                tables.lookahead(keys[::5].copy(), dest="cache")
        assert (len(straight.cache) > 0) == warm

        steps = [
            lambda t, k, v: t.peek(k),
            lambda t, k, v: t.lookahead(k, dest="buffer"),
            lambda t, k, v: t.get(k),
            lambda t, k, v: t.put(k, v),
            lambda t, k, v: t.lookahead(k, dest="cache"),
            lambda t, k, v: t.get(k),
            lambda t, k, v: t.peek(k),
        ]
        for step in steps:
            got = step(straight, keys, values)
            want = step(general, shuffled, noisy)
            if isinstance(got, np.ndarray):
                assert got.shape == (len(keys), 8) and got.flags.writeable
                assert np.array_equal(got[np.searchsorted(keys, shuffled)], want)
            else:
                assert got == want
            assert self._observed(straight, straight_log) == self._observed(general, general_log)
        assert {name for name, _ in straight_log} == set(self.CALLS)

    def test_the_shortcut_needs_strictly_increasing_one_dimensional_keys(self, tables):
        from repro.core.embedding import _ascending

        assert _ascending(np.array([1, 2, 9]))
        assert _ascending(np.array([], dtype=np.int64)) and _ascending(np.array([4]))
        assert not _ascending(np.array([1, 2, 2, 9]))   # a repeat is not unique
        assert not _ascending(np.array([1, 3, 2]))
        assert not _ascending(np.array([[1, 2], [3, 4]]))
        # repeats in non-decreasing keys: one store read each, last put wins
        keys = np.array([2, 2, 5, 5, 5])
        rows = np.arange(40, dtype=np.float32).reshape(5, 8)
        tables.put(keys, rows)
        assert tables.store.stats.puts == 2
        assert np.array_equal(tables.get(keys), rows[[1, 1, 4, 4, 4]])
        assert np.array_equal(tables.peek(keys), rows[[1, 1, 4, 4, 4]])
        assert tables.lookahead(keys, dest="cache") == 2

    def test_rows_returned_for_sorted_keys_are_the_callers_to_change(self, tables):
        keys = np.arange(6)
        tables.put(keys, np.ones((6, 8), dtype=np.float32))
        for read in (tables.get, tables.peek):
            rows = read(keys)
            rows += 5.0
            assert np.array_equal(tables.peek(keys), np.ones((6, 8), dtype=np.float32))
