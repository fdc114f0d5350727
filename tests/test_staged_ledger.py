"""MLKV's ledger of staged copies no Get has read yet, kept in arrays.

``MLKVStats.lookahead_evicted_unread`` counts the copies look-ahead staged
that left memory before a Get or a committed read read them.  The ledger
behind it is two key-sorted arrays (``repro.core.mlkv._UnreadStaged``);
it used to be a dict of key -> newest staged address plus a deque of every
staged copy in address order.  That dict-and-deque ledger is kept here as
the reference, and this file checks, step by step, that the arrays count
what it counted:

* on the ledger alone, over seeded histories and the three cases that
  matter — a key staged twice before a read, a read that lands between a
  page eviction and the sweep, a read of a key whose newest copy is newer
  than its staged one;
* inside two MLKV stores, one keeping each ledger, over a seeded sequence
  of staging (array runs, per-key staging, repeated keys, a record of
  another width), batched and per-key Gets, committed reads, Puts that
  evict pages and deletes.
"""

from __future__ import annotations

import os
from collections import deque

import numpy as np
import pytest

from repro.core import MLKV
from repro.core.mlkv import _UnreadStaged
from repro.core.staleness import ASP_BOUND

WIDTH = 24
KEYS = 3000


class DictLedger:
    """The ledger as MLKV kept it before: key -> address of its newest
    unread staged copy, and every staged copy as ``(address, key)`` in
    address order.  With an ``index``, it checks on every key a read
    takes off that the key's index entry is at or above the oldest staged
    copy — the filter a batched Get applied before handing keys over."""

    def __init__(self, index=None) -> None:
        self.unread: dict[int, int] = {}
        self.order: deque = deque()
        self.index = index

    def __len__(self) -> int:
        return len(self.unread)

    def stage(self, keys: np.ndarray, addresses: np.ndarray) -> None:
        for key, address in zip(keys.tolist(), addresses.tolist()):
            self.unread[key] = address
            self.order.append((address, key))

    def read(self, keys: np.ndarray) -> None:
        for key in keys.tolist():
            if self.unread.pop(key, None) is not None and self.index is not None:
                assert self.index.find(key) >= self.order[0][0]

    def sweep(self, head: int) -> int:
        count = 0
        while self.order and self.order[0][0] < head:
            address, key = self.order.popleft()
            if self.unread.get(key) == address:
                del self.unread[key]
                count += 1
        return count


def entries(ledger) -> dict:
    if isinstance(ledger, DictLedger):
        return dict(ledger.unread)
    assert (ledger.keys[1:] > ledger.keys[:-1]).all()  # sorted, one entry a key
    return dict(zip(ledger.keys.tolist(), ledger.addresses.tolist()))


def keys_of(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


# ----------------------------------------------------------------------
# the ledger alone
# ----------------------------------------------------------------------
class Pair:
    """The array ledger and the reference, fed the same events."""

    def __init__(self) -> None:
        self.arrays, self.reference = _UnreadStaged(), DictLedger()

    def stage(self, keys, addresses) -> None:
        for ledger in (self.arrays, self.reference):
            ledger.stage(keys_of(keys), np.array(addresses, dtype=np.int64))
        self.check()

    def read(self, keys) -> None:
        for ledger in (self.arrays, self.reference):
            ledger.read(keys_of(keys))
        self.check()

    def sweep(self, head: int) -> int:
        counted = self.arrays.sweep(head)
        assert counted == self.reference.sweep(head)
        self.check()
        return counted

    def check(self) -> None:
        assert entries(self.arrays) == entries(self.reference)
        assert len(self.arrays) == len(self.reference)


class TestTheLedger:
    def test_a_key_staged_twice_before_a_read_counts_once(self):
        pair = Pair()
        pair.stage([7, 8], [10, 11])
        pair.stage([7], [20])
        assert pair.sweep(15) == 1  # 8's copy; 7's first copy is not its newest
        assert pair.sweep(25) == 1  # 7's second copy

    def test_a_read_between_an_eviction_and_the_sweep_is_a_read(self):
        pair = Pair()
        pair.stage([7, 8], [10, 11])
        pair.read([7])  # the head has passed both copies; no sweep yet
        assert pair.sweep(15) == 1

    def test_a_read_of_a_newer_copy_takes_the_key_off(self):
        """A Put appended a newer copy after staging: a read finds that
        one, and the staged copy was still not evicted unread."""
        pair = Pair()
        pair.stage([7], [10])
        pair.read([7])
        assert pair.sweep(100) == 0

    def test_repeated_and_absent_reads(self):
        pair = Pair()
        pair.stage([5, 9, 1 << 63], [1, 2, 3])
        pair.read([9, 9, 4, 4, (1 << 64) - 1])
        pair.stage([], [])
        pair.read([])
        assert pair.sweep(10) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_histories(self, seed):
        rng = np.random.default_rng(seed)
        pair = Pair()
        universe = rng.choice(1 << 62, size=400, replace=False)
        tail = head = 0
        evicted = 0
        for _ in range(300):
            action = rng.integers(4)
            if action == 0:  # a staging call, a key possibly more than once
                keys = rng.choice(universe, size=int(rng.integers(1, 60)))
                pair.stage(keys, tail + np.arange(len(keys)))
                tail += len(keys) + int(rng.integers(0, 5))
            elif action == 1:
                pair.read(rng.choice(universe, size=int(rng.integers(0, 120))))
            elif action == 2:  # pages evicted, the sweep comes later
                head = min(tail, head + int(rng.integers(0, 40)))
            else:
                evicted += pair.sweep(head)
        evicted += pair.sweep(tail)
        assert evicted > 0 and len(pair.arrays) == 0


# ----------------------------------------------------------------------
# inside the store
# ----------------------------------------------------------------------
def value(key: int, version: int, width: int = WIDTH) -> bytes:
    return (f"{key}:{version}:".encode() * width)[:width]


def open_store(root, name: str) -> MLKV:
    store = MLKV(os.path.join(root, name), staleness_bound=ASP_BOUND,
                 memory_budget_bytes=1 << 15, page_bytes=1 << 11, mutable_fraction=0.5)
    store.multi_put(list(range(KEYS)), [value(key, 0) for key in range(KEYS)])
    return store


def on_disk(store: MLKV, keys: np.ndarray) -> np.ndarray:
    addresses = store.index.find_many(keys.astype(np.uint64))
    return keys[(addresses >= 0) & (addresses < store.log.head_address)]


class Stores:
    """Two stores, identical but for the ledger; every call goes to both
    and must return the same thing and leave the same count."""

    def __init__(self, root) -> None:
        self.arrays = open_store(root, "arrays")
        self.reference = open_store(root, "reference")
        self.reference._unread = DictLedger(self.reference.index)
        self.version = 0

    def __call__(self, method: str, *args):
        results = [getattr(store, method)(*args) for store in (self.arrays, self.reference)]
        assert results[0] == results[1]
        counts = [store.mlkv_stats.lookahead_evicted_unread for store in (self.arrays, self.reference)]
        assert counts[0] == counts[1]
        assert entries(self.arrays._unread) == entries(self.reference._unread)
        return results[0]

    @property
    def evicted(self) -> int:
        return self.arrays.mlkv_stats.lookahead_evicted_unread

    def close(self) -> None:
        self.arrays.close()
        self.reference.close()


@pytest.fixture
def stores(tmp_path):
    pair = Stores(str(tmp_path))
    yield pair
    pair.close()


class TestInsideTheStore:
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_sequence(self, stores, seed):
        rng = np.random.default_rng(seed)
        # A record of another width: a staging run hands it to the per-key path.
        stores("put", 11, value(11, 0, WIDTH + 8))
        staged = 0
        for step in range(160):
            action = rng.integers(9)
            keys = np.sort(rng.choice(KEYS, size=int(rng.integers(100, 400)), replace=False))
            if action in (0, 1):  # a look-ahead batch, an array as the facade sends it
                staged += stores("lookahead", keys)
            elif action == 2:  # short: per key
                staged += stores("lookahead", on_disk(stores.arrays, keys)[:8].tolist())
            elif action == 3:  # repeated keys: per key
                staged += stores("lookahead", np.concatenate([keys[:40], keys[:40]]).tolist())
            elif action == 4:
                stores("multi_get", keys.tolist())
            elif action == 5:
                for key in keys[:5].tolist():
                    stores("get", key)
                stores("snapshot_read", int(keys[5]))
                stores("snapshot_read_many", keys[6:60].tolist())
            elif action == 6:
                stores.version += 1
                stores("multi_put", keys.tolist(), [value(key, stores.version) for key in keys.tolist()])
            elif action == 7:
                stores.version += 1
                for key in keys[:20].tolist():
                    stores("put", key, value(key, stores.version))
            else:
                stores("delete", int(keys[0]))
                stores("snapshot_read", -1)  # no record can have this key
        assert staged > 1000 and stores.evicted > 0

    def test_a_key_read_after_a_newer_copy_is_not_evicted_unread(self, stores):
        """Stage a batch, push the staged copies below the read-only
        boundary, Put them (new copies at the tail), Get them: the Gets read
        the newer copies and still take the staged ones off the ledger."""
        keys = np.arange(0, 400, 4)
        assert len(on_disk(stores.arrays, keys)) == len(keys)
        assert stores("lookahead", keys) == len(keys)
        pushed = list(range(1000, 1380))  # on disk: 380 appends, the mutable region and more
        stores("multi_put", pushed, [value(key, 1) for key in pushed])
        staged_at = stores.arrays.index.find_many(keys.astype(np.uint64))
        assert (staged_at < stores.arrays.log.read_only_address).all()
        assert (staged_at >= stores.arrays.log.head_address).all()
        stores("multi_put", keys.tolist(), [value(key, 2) for key in keys.tolist()])
        assert (stores.arrays.index.find_many(keys.astype(np.uint64)) > staged_at).all()
        assert stores("multi_get", keys.tolist()) == [value(key, 2) for key in keys.tolist()]
        assert len(stores.arrays._unread) == 0
        pushed = list(range(1500, 2500))
        stores("multi_put", pushed, [value(key, 1) for key in pushed])
        assert (staged_at < stores.arrays.log.head_address).all()
        assert stores.evicted == 0

    def test_unread_staged_copies_are_counted_once_evicted(self, stores):
        keys = np.arange(1, 400, 4)
        assert stores("lookahead", keys) == len(keys)
        stores("multi_get", keys[:30].tolist())
        pushed = list(range(1000, 2500))
        stores("multi_put", pushed, [value(key, 1) for key in pushed])
        assert stores.evicted == len(keys) - 30
