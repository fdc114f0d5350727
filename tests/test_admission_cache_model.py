"""The admission cache's batch verbs ≡ the per-key verbs they replaced.

``AdmissionCache.lookup_many`` / ``admit_many`` make one pass over the
LRU's entries per batch; the cache used to be served one ``lookup(key)``
and one ``admit(key, vector)`` at a time.  That per-key cache is kept
here as the reference.  Over seeded histories — bounded mode with reuse
limits 1 and 3, unlimited reuse, capacity 0, repeated keys and repeated
admits — both must return the same vectors and leave the same LRU order,
``TierCounters`` and ``LRUCache`` hit/miss counts.

On the server, ``_fetch`` decodes a fetch's present records with one
``decode_vectors``, lazily initializes the absent keys and admits copied
rows: answers and tiers must equal the per-key path's (a server whose
fetch decodes and admits one key at a time into the per-key cache), and
no cache entry may share memory with the batch matrix.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

import numpy as np
import pytest

from repro.core.mlkv import MLKV
from repro.core.staleness import ASP_BOUND
from repro.device import SimClock, SSDModel
from repro.kv import LRUCache, decode_vector, encode_vector
from repro.serve import AdmissionCache, EmbeddingServer, TierCounters
from repro.serve import server as server_module

DIM = 8
ITEMS = 3000


class PerKeyCache:
    """The cache as it was: one LRU ``get`` / ``put`` per key."""

    def __init__(self, capacity: int, reuse_limit: Optional[int] = None) -> None:
        self.capacity = capacity
        self.reuse_limit = reuse_limit
        self.tiers = TierCounters()
        self._lru = LRUCache(capacity)

    def __len__(self) -> int:
        return len(self._lru)

    def lookup(self, key: int) -> Optional[np.ndarray]:
        entry = self._lru.get(key)
        if entry is None:
            return None
        vector, remaining = entry
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                self._lru.pop(key)
                self.tiers.cache_expirations += 1
            else:
                entry[1] = remaining
        self.tiers.cache_hits += 1
        return vector

    def admit(self, key: int, vector: np.ndarray) -> None:
        if self.capacity == 0:
            return
        self._lru.put(key, [vector, self.reuse_limit])

    def lookup_many(self, keys) -> list[Optional[np.ndarray]]:
        return [self.lookup(key) for key in keys]

    def admit_many(self, keys, vectors) -> None:
        for key, vector in zip(keys, vectors):
            self.admit(key, vector)


def state(cache) -> tuple:
    lru = cache._lru
    entries = [(key, lru.peek(key)[1]) for key in lru.keys()]
    return entries, asdict(cache.tiers), lru.hits, lru.misses


MODES = [(8, None), (8, 1), (8, 3), (0, None), (0, 2), (1, 3), (64, 2)]


class TestBatchVerbs:
    @pytest.mark.parametrize("capacity,reuse_limit", MODES)
    @pytest.mark.parametrize("seed", range(4))
    def test_a_random_history_matches_the_per_key_cache(self, capacity, reuse_limit, seed):
        rng = np.random.default_rng(seed)
        mine = AdmissionCache(capacity, reuse_limit=reuse_limit)
        reference = PerKeyCache(capacity, reuse_limit=reuse_limit)
        for step in range(300):
            keys = rng.integers(0, 24, int(rng.integers(0, 12))).tolist()
            if rng.random() < 0.5:
                if rng.random() < 0.5:  # a fetch's keys are unique
                    keys = list(dict.fromkeys(keys))
                got, want = mine.lookup_many(keys), reference.lookup_many(keys)
                assert len(got) == len(keys)
                assert all(a is b for a, b in zip(got, want))
            else:
                # Repeated admits: keys already cached, and keys twice in one batch.
                batch = [np.full(2, step * 100 + i, np.float32) for i in range(len(keys))]
                mine.admit_many(keys, batch)
                reference.admit_many(keys, batch)
            assert state(mine) == state(reference)
            assert len(mine) == len(reference) <= capacity
        assert mine.hit_ratio() == pytest.approx(
            reference.tiers.cache_hits / reference.tiers.total if reference.tiers.total else 0.0
        )

    def test_expiry_at_reuse_limit_one(self):
        cache = AdmissionCache(4, reuse_limit=1)
        one, two = np.ones(2), np.zeros(2)
        cache.admit_many([1, 2], [one, two])
        got = cache.lookup_many([2, 1, 2, 3])
        assert got[0] is two and got[1] is one and got[2] is None and got[3] is None
        assert len(cache) == 0
        assert cache.tiers.cache_expirations == 2 and cache.tiers.cache_hits == 2
        assert (cache._lru.hits, cache._lru.misses) == (2, 2)

    def test_an_admit_past_capacity_evicts_the_least_recent(self):
        cache = AdmissionCache(3)
        cache.admit_many([1, 2, 3], [np.ones(1)] * 3)
        cache.lookup_many([1])
        cache.admit_many([4, 2, 5], [np.ones(1)] * 3)
        assert cache._lru.keys() == [4, 2, 5]


# ----------------------------------------------------------------------
# the server's fetch
# ----------------------------------------------------------------------
def make_store(directory, staleness_bound):
    store = MLKV(str(directory), ssd=SSDModel(SimClock()), staleness_bound=staleness_bound,
                 memory_budget_bytes=1 << 15)
    keys = list(range(0, 2 * ITEMS, 2))  # odd keys are absent
    rows = np.random.default_rng(7).standard_normal((len(keys), DIM)).astype(np.float32)
    store.multi_put(keys, [encode_vector(row) for row in rows])
    store.clock.drain()
    return store


class PerKeyServer(EmbeddingServer):
    """The server's read path as it was: a per-key cache lookup, and a
    fetch that decodes and admits one key at a time."""

    def lookup_unique(self, unique_keys):
        results = [self.cache.lookup(key) for key in unique_keys]
        missing = [row for row, vector in enumerate(results) if vector is None]
        if missing:
            for row, vector in zip(missing, self._fetch([unique_keys[r] for r in missing])):
                results[row] = vector
        return results

    def _fetch(self, keys):
        if self._clock is not None:
            self._clock.advance(server_module.DISPATCH_CPU_SECONDS, component="cpu")
        stats = self.store.stats
        hits_before, misses_before = stats.hits, stats.misses
        refresh_hits, refresh_misses = self._refresh_hits, self._refresh_misses
        if self.read_mode == "bounded":
            raws = self.store.multi_get(keys)
        else:
            raws = self.store.snapshot_read_many(keys)
        stats = self.store.stats
        absent = sum(1 for raw in raws if raw is None)
        hit_delta = (stats.hits - hits_before) - (self._refresh_hits - refresh_hits)
        miss_delta = (stats.misses - misses_before) - (self._refresh_misses - refresh_misses)
        self.cache.tiers.lazy_inits += absent
        self.cache.tiers.store_memory_hits += max(0, hit_delta)
        self.cache.tiers.store_disk_reads += max(0, miss_delta - absent)
        vectors = []
        for key, raw in zip(keys, raws):
            vector = self.tables.init_vector(key) if raw is None else decode_vector(raw, dim=DIM)
            self.cache.admit(key, vector)
            vectors.append(vector)
        return vectors


def servers(tmp_path, read_mode, staleness_bound, cache_entries):
    mine = EmbeddingServer(make_store(tmp_path / "mine", staleness_bound), dim=DIM,
                           seed=3, cache_entries=cache_entries, read_mode=read_mode)
    reference = PerKeyServer(make_store(tmp_path / "ref", staleness_bound), dim=DIM,
                             seed=3, cache_entries=cache_entries, read_mode=read_mode)
    reference.cache = PerKeyCache(cache_entries, reuse_limit=mine.cache.reuse_limit)
    return mine, reference


class TestFetch:
    @pytest.mark.parametrize(
        "read_mode,staleness_bound,cache_entries",
        [("snapshot", ASP_BOUND, 64), ("snapshot", ASP_BOUND, 0),
         ("bounded", 3, 64), ("bounded", 1, 16)],
    )
    def test_mixed_batches_answer_as_the_per_key_path(
        self, tmp_path, read_mode, staleness_bound, cache_entries
    ):
        mine, reference = servers(tmp_path, read_mode, staleness_bound, cache_entries)
        assert mine.read_mode == read_mode
        rng = np.random.default_rng(11)
        for _ in range(40):
            keys = list(dict.fromkeys(rng.integers(0, 2 * ITEMS, 40).tolist()))
            got, want = mine.lookup_unique(keys), reference.lookup_unique(keys)
            assert len(got) == len(keys)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == np.float32 and np.array_equal(a, b)
            assert asdict(mine.cache.tiers) == asdict(reference.cache.tiers)
            assert mine.cache._lru.keys() == reference.cache._lru.keys()
            assert mine.clock.now == reference.clock.now
        tiers = mine.cache.tiers
        assert tiers.lazy_inits > 0 and tiers.store_disk_reads > 0
        assert tiers.store_memory_hits > 0
        if cache_entries:
            assert tiers.cache_hits > 0
        mine.close()
        reference.close()

    def test_lookup_of_repeated_and_unseen_keys(self, tmp_path):
        mine, reference = servers(tmp_path, "snapshot", ASP_BOUND, 32)
        keys = [5, 4, 4, 1000, 3, 5]
        assert np.array_equal(mine.lookup(keys), reference.lookup(keys))
        assert mine.cache._lru.keys() == reference.cache._lru.keys()
        assert asdict(mine.cache.tiers) == asdict(reference.cache.tiers)
        mine.close()
        reference.close()

    def test_no_entry_pins_the_batch_matrix(self, tmp_path, monkeypatch):
        mine, _ = servers(tmp_path, "snapshot", ASP_BOUND, 256)
        matrices, decode = [], server_module.decode_vectors

        def recording(raws, dim, out=None):
            matrices.append(decode(raws, dim, out))
            return matrices[-1]

        monkeypatch.setattr(server_module, "decode_vectors", recording)
        fetched = mine._fetch(list(range(0, 200, 3)))  # present and absent keys
        assert len(matrices) == 1 and len(matrices[0]) == len(range(0, 200, 6))
        admitted = [mine.cache._lru.peek(key)[0] for key in mine.cache._lru.keys()]
        assert len(admitted) == len(fetched)
        for entry in admitted:
            assert entry.flags.owndata
            assert not np.shares_memory(entry, matrices[0])
        mine.close()
