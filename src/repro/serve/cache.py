"""Hot-key admission cache in front of the store, with tier accounting.

Reuses :class:`~repro.kv.common.cache.LRUCache` (the same structure
backing the LSM block cache and the training-side application cache) and
adds the two things serving needs:

* a **reuse limit** per cached entry, so a bounded-staleness store's
  admission discipline survives the cache: an entry fetched through one
  Get admission may serve at most ``reuse_limit`` requests before the
  server re-fetches (re-admits) it.  ``None`` means unlimited reuse —
  correct for snapshot serving and for ASP stores, where reads carry no
  admission budget.
* **per-tier hit accounting** — every answered request is attributed to
  the tier that produced its value (admission cache, store memory, or
  store disk), which is what the SLO report breaks request cost down by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.kv import LRUCache


@dataclass
class TierCounters:
    """Requests served per tier, cheapest to most expensive.

    ``cache_hits`` and ``lazy_inits`` (keys the store has never seen —
    answered with the deterministic initialization, no data moved) are
    exact.  The memory/disk split of store-served keys derives from the
    engine's own hit/miss counters, which count memory-resident serves
    exactly on the hybrid-log engines (FASTER/MLKV, the serving
    default); the B+tree engine counts page-cache probes instead, so
    its split is an approximation.
    """

    cache_hits: int = 0
    store_memory_hits: int = 0
    store_disk_reads: int = 0
    lazy_inits: int = 0
    cache_expirations: int = 0  # entries retired by the reuse limit

    @property
    def total(self) -> int:
        """Total lookups across all tiers."""
        return (self.cache_hits + self.store_memory_hits
                + self.store_disk_reads + self.lazy_inits)

    def ratios(self) -> dict[str, float]:
        """Fraction of requests answered by each tier."""
        total = self.total
        if total == 0:
            return {"cache": 0.0, "store_memory": 0.0,
                    "store_disk": 0.0, "lazy_init": 0.0}
        return {
            "cache": self.cache_hits / total,
            "store_memory": self.store_memory_hits / total,
            "store_disk": self.store_disk_reads / total,
            "lazy_init": self.lazy_inits / total,
        }


class AdmissionCache:
    """LRU of decoded embedding vectors with bounded reuse.

    Parameters
    ----------
    capacity:
        Entry budget (0 disables caching entirely).
    reuse_limit:
        Requests one cached entry may answer before it expires; ``None``
        for unlimited.  The server sets this to the store's staleness
        bound when serving through the admission protocol.
    """

    def __init__(self, capacity: int, reuse_limit: Optional[int] = None) -> None:
        if reuse_limit is not None and reuse_limit < 1:
            raise ConfigError(f"reuse_limit must be >= 1, got {reuse_limit}")
        self.capacity = capacity
        self.reuse_limit = reuse_limit
        self.tiers = TierCounters()
        # The batch verbs walk the LRU's OrderedDict directly (one pass per
        # batch) and book its hit/miss counts as its own get() would.
        self._lru = LRUCache(capacity)

    def __len__(self) -> int:
        return len(self._lru)

    def lookup_many(self, keys) -> list[Optional[np.ndarray]]:
        """Serve requests from the cache, in order, honoring the reuse limit.

        Returns one vector per key, ``None`` for a miss.  One pass over
        the LRU's entries leaves its order, its hit/miss counts and the
        cache-tier counters exactly as looking the keys up one at a time
        would; store-tier counters are updated by the server after its
        fetch.
        """
        entries = self._lru._entries
        get, touch = entries.get, entries.move_to_end
        found: list[Optional[np.ndarray]] = []
        hits = expired = 0
        for key in keys:
            entry = get(key)
            if entry is None:
                found.append(None)
                continue
            hits += 1
            found.append(entry[0])
            remaining = entry[1]
            if remaining is None:
                touch(key)
            elif remaining <= 1:
                del entries[key]
                expired += 1
            else:
                touch(key)
                entry[1] = remaining - 1
        self._lru.hits += hits
        self._lru.misses += len(found) - hits
        self.tiers.cache_hits += hits
        self.tiers.cache_expirations += expired
        return found

    def admit_many(self, keys, vectors) -> None:
        """Insert freshly fetched vectors (one admission's worth of reuse
        each), in order, evicting the least recently used past capacity.

        The vectors are kept as given: a caller that decoded a batch into
        one matrix hands over copied rows, so no entry pins the batch.
        """
        if self.capacity == 0:
            return
        entries = self._lru._entries
        touch, limit = entries.move_to_end, self.reuse_limit
        for key, vector in zip(keys, vectors):
            if key in entries:
                touch(key)
            entries[key] = [vector, limit]
        for _ in range(len(entries) - self.capacity):
            entries.popitem(last=False)

    def hit_ratio(self) -> float:
        """Cache-tier hit ratio over every answered request."""
        total = self.tiers.total
        return self.tiers.cache_hits / total if total else 0.0
