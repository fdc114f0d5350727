"""Embedding-table facade over an MLKV store (paper Figure 3's API).

Maps integer sparse-feature identifiers to float32 vectors.  Responsible
for framing batches as the matrices the store's array verbs take (keys stay
arrays end to end), deterministic lazy initialization of unseen keys, the
cache conventional prefetching fills, and the batch calls the trainers use.

The application cache holds vectors fetched *through the Get protocol*
(their staleness is already counted), so consuming a cached vector does
not re-admit; a ``put`` writes through to the store and refreshes the
cache entry.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional

import numpy as np

from repro._arrays import sorted_unique
from repro.errors import ConfigError, StalenessViolation
from repro.kv.api import KVStore
from repro.kv.common.cache import LRUCache
from repro.kv.common.serialization import decode_vectors, frame_vectors, framed_width
from repro.kv.common.serialization import unframe_vectors
from repro.obs.trace import span as obs_span


#: Dataloader worker threads issuing conventional (synchronous-API)
#: prefetch reads; bounds their overlap in the device queue.
PREFETCH_WORKERS = 4


def _ascending(keys: np.ndarray) -> bool:
    """1-D and strictly increasing, as trainers pass them: ``np.unique`` would change nothing."""
    return keys.ndim == 1 and bool((keys[1:] > keys[:-1]).all())


class EmbeddingTables:
    """Batched embedding access with lazy init and app-level caching.

    Works over any :class:`~repro.kv.api.KVStore`; the baseline variants
    of Figure 7 (PERSIA-FASTER, PERSIA-RocksDB, ...) wrap their engines
    with the same facade so all variants share application logic.  The
    ``lookahead(dest='buffer')`` fast path is only available when the
    store is an MLKV instance — exactly the paper's point.

    Parameters
    ----------
    store:
        The underlying key-value store (MLKV for the full feature set).
    dim:
        Embedding dimension; every vector read is validated against it.
    init_scale:
        Uniform(-scale, scale) lazy initialization, the common choice for
        embedding tables.
    seed:
        Base seed; each key derives its own stream so initialization is
        deterministic regardless of access order.
    cache_entries:
        Capacity of the application cache (0 disables it).
    """

    def __init__(
        self,
        store: KVStore,
        dim: int,
        init_scale: float = 0.05,
        seed: int = 0,
        cache_entries: int = 4096,
    ) -> None:
        if dim <= 0:
            raise ConfigError(f"embedding dim must be positive, got {dim}")
        self.store = store
        self.dim = dim
        self.init_scale = init_scale
        self.seed = seed
        self.cache = LRUCache(cache_entries)

    # ------------------------------------------------------------------
    # batch interfaces (paper Figure 3)
    # ------------------------------------------------------------------
    def get(self, keys) -> np.ndarray:
        """Fetch vectors for ``keys`` (duplicates allowed); shape [n, dim].

        Unseen keys are lazily initialized and inserted.  Per unique key
        the store's Get protocol runs once; duplicates within the batch
        share the admission (embedding lookups for one minibatch are a
        single logical read per key).  All keys missing from the
        application cache are fetched with **one** batched ``get_rows``,
        so the store's amortized hot path serves the whole minibatch.
        """
        keys = np.asarray(keys, dtype=np.int64)
        with obs_span("emb.get", keys=keys.size):
            unique, inverse = (
                (keys, None) if _ascending(keys) else np.unique(keys, return_inverse=True)
            )
            if not len(self.cache) and unique.shape[0]:
                # Nothing was prefetched: every key is a cache miss.
                self.cache.misses += unique.shape[0]
                rows = self._fetch_many(unique)
                return rows if inverse is None else rows[inverse].reshape(*keys.shape, self.dim)
            gathered = np.empty((unique.shape[0], self.dim), dtype=np.float32)
            fetch_rows: list[int] = []
            fetch_keys: list[int] = []
            for i, key in enumerate(unique.tolist()):
                vector = self._consume_cached(key)
                if vector is not None:
                    gathered[i] = vector
                else:
                    fetch_rows.append(i)
                    fetch_keys.append(key)
            if fetch_keys:
                gathered[fetch_rows] = self._fetch_many(np.array(fetch_keys, dtype=np.int64))
            return gathered if inverse is None else gathered[inverse].reshape(*keys.shape, self.dim)

    def _consume_cached(self, key: int) -> Optional[np.ndarray]:
        """Training read from the app cache (or ``None`` on a miss).

        Cache entries are reference-counted prefetches: each conventional
        prefetch performed one Get admission, so each entry covers exactly
        that many training uses.  A warm cache therefore never bypasses
        the staleness bound — it only moves the store read (and its
        admission) off the critical path.
        """
        entry = self.cache.peek(key)
        if entry is not None:
            entry[1] -= 1
            if entry[1] <= 0:
                self.cache.pop(key)
            self.cache.hits += 1
            return entry[0]
        self.cache.misses += 1
        return None

    def _fetch_many(self, keys: np.ndarray) -> np.ndarray:
        """One batched store read; unseen keys initialize and write back.

        Returns a new ``(len(keys), dim)`` float32 matrix, unframed in one
        pass from the framed rows ``get_rows`` fills.  Keys the store does
        not hold are initialized, inserted with one ``put_rows`` and read
        again with a second ``get_rows`` so that the store's Get protocol
        counts their admissions.
        """
        framed = np.empty((len(keys), framed_width(self.dim)), dtype=np.uint8)
        found = self.store.get_rows(keys, framed)
        if not found.all():
            missing = keys[~found]
            init_rows = np.stack([self.init_vector(key) for key in missing.tolist()])
            self.store.put_rows(missing, frame_vectors(init_rows))
            refreshed = np.empty((len(missing), framed.shape[1]), dtype=np.uint8)
            if not self.store.get_rows(missing, refreshed).all():
                raise ValueError("the store lost a key it was just given")
            framed[~found] = refreshed
        return unframe_vectors(framed)

    def put(self, keys, values: np.ndarray) -> None:
        """Write updated vectors back (backward-pass path).

        Duplicate keys are allowed; the *last* occurrence wins, matching
        a sequential application of the updates.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        values = np.asarray(values, dtype=np.float32).reshape(-1, self.dim)
        if keys.shape[0] != values.shape[0]:
            raise ConfigError("put requires one vector per key")
        with obs_span("emb.put", keys=keys.shape[0]):
            # Last-duplicate-wins dedup, vectorized: unique over the reversed
            # keys makes each key's *first* hit its last original occurrence.
            unique, rows = keys, values
            if not _ascending(keys):
                unique, rev_index = np.unique(keys[::-1], return_index=True)
                rows = values[keys.shape[0] - 1 - rev_index]
            self.store.put_rows(unique, frame_vectors(rows))
            if not len(self.cache):
                return  # no prefetched entry to keep fresh
            for i, key in enumerate(unique.tolist()):
                entry = self.cache.peek(key)
                if entry is not None:
                    # Keep an un-consumed prefetched entry fresh.
                    entry[0] = rows[i].copy()

    def lookahead(self, keys, dest: str = "buffer") -> int:
        """Non-blocking prefetch of future ``keys`` (paper §III-C2).

        ``dest='buffer'`` stages disk records into MLKV's mutable memory
        buffer — this works *beyond* the staleness bound because no Get
        admission happens.  ``dest='cache'`` additionally pulls the values
        into the application cache through the Get protocol, i.e.
        conventional prefetching (limited by the bound).  Returns the
        number of records moved.
        """
        keys = np.asarray(keys, dtype=np.int64)
        with obs_span("emb.lookahead", dest=dest, keys=keys.size):
            keys = keys if _ascending(keys) else sorted_unique(keys)
            if dest == "buffer":
                return self.store.lookahead(keys)
            if dest == "cache":
                moved = 0
                ssd = self.store.ssd
                # Conventional prefetching goes through the synchronous Get
                # API on a few framework worker threads — limited overlap.
                # Deliberately per-key (not multi_get): each worker issues an
                # independent admission, and a key that cannot admit must not
                # abort its siblings — that limitation is the paper's point.
                scope = (
                    ssd.background(parallelism=PREFETCH_WORKERS)
                    if ssd is not None
                    else nullcontext()
                )
                with scope:
                    for i, key in enumerate(keys):
                        try:
                            vector = self._fetch_many(keys[i : i + 1])[0]  # one admission per use
                        except StalenessViolation:
                            # Prefetch is advisory: a key whose clock cannot
                            # admit another Get yet is simply skipped; the
                            # consumer fetches it (blocking) once it settles.
                            continue
                        entry = self.cache.peek(int(key))
                        if entry is not None:
                            entry[0] = vector
                            entry[1] += 1
                        else:
                            self.cache.put(int(key), [vector, 1])
                            moved += 1
                return moved
            raise ConfigError(f"unknown lookahead destination {dest!r}")

    def peek(self, keys) -> np.ndarray:
        """Evaluation read: committed values, no staleness admission.

        Keys never seen by training return their deterministic lazy
        initialization (without inserting them).
        """
        keys = np.asarray(keys, dtype=np.int64)
        unique, inverse = (keys, None) if _ascending(keys) else np.unique(keys, return_inverse=True)
        # Every store exposes batched committed reads: stores with an
        # admission protocol map them to their bypass path, for plain
        # engines multi_get already is the committed read.
        raws = self.store.snapshot_read_many(unique.tolist())
        gathered = np.empty((unique.shape[0], self.dim), dtype=np.float32)
        hit_rows = []
        for i, (key, raw) in enumerate(zip(unique.tolist(), raws)):
            if raw is None:
                gathered[i] = self.init_vector(key)
            else:
                hit_rows.append(i)
        if hit_rows:
            gathered[hit_rows] = decode_vectors(
                [raws[i] for i in hit_rows], dim=self.dim
            )
        return gathered if inverse is None else gathered[inverse].reshape(*keys.shape, self.dim)

    # ------------------------------------------------------------------
    def init_vector(self, key: int) -> np.ndarray:
        """Deterministic lazy-init vector for ``key`` (no insertion).

        Public because the serving tier must reproduce the exact same
        initialization for keys training never touched.
        """
        rng = np.random.default_rng((self.seed << 32) ^ (key * 0x9E3779B9 + 1))
        return rng.uniform(-self.init_scale, self.init_scale, self.dim).astype(np.float32)

    def __len__(self) -> int:
        return len(self.store)
