"""FASTER-like key-value store over the hybrid log.

Operation lifecycle (FASTER §3, used as-is by MLKV):

* ``get`` — index lookup, then a log read.  In-memory reads are free of
  I/O; reads below ``head`` pay a blocking random SSD read (the data
  stall of paper Figure 2).
* ``put`` — if the newest copy lives in the mutable region and the value
  length is unchanged, update **in place**; otherwise append a new copy
  (read-copy-update), CAS the index to it, and mark the old in-memory
  copy ``replaced`` so racing readers retry.
* ``rmw`` — fused read-modify-write with the same in-place fast path.
* ``checkpoint`` / :meth:`FasterKV.recover` — flush the log, persist the
  index and boundaries, and rebuild by scanning the log if the index
  snapshot is missing (fuzzy-checkpoint fallback).
* ``multi_get`` / ``multi_put`` — resolve the whole batch through the
  index at once and serve the *plain* keys (resident for a Get, in the
  mutable region at their own width for a Put) as array operations on the
  log's page arena; every other key takes the per-key methods above, in
  batch order.

A small per-operation CPU cost is charged to the simulated clock; this is
the "index traversal overhead" that makes MLKV-backed training a few
percent slower than the specialized in-memory frameworks in Figure 6.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Iterator, Optional

import numpy as np

from repro.device.clock import SimClock
from repro.device.ssd import SSDModel
from repro.errors import CheckpointError, StorageError
from repro.kv.api import CheckpointManager, KVStore, StoreStats
from repro.kv.faster.epoch import EpochManager
from repro.kv.faster.hashindex import HashIndex
from repro.kv.faster.hybridlog import TOMBSTONE_LEN, HybridLog
from repro.kv.faster.record import (
    FIRST_GENERATION,
    next_generation,
    pack_word,
    released_words,
    unpack_word,
    word_flags,
    word_staleness,
)
from repro.obs.trace import span as obs_span

#: CPU cost of one store operation (hash probe + log access bookkeeping).
DEFAULT_OP_CPU_SECONDS = 0.9e-6

#: A batched operation hands each key that is not plain to the per-key
#: method and picks the array path up again behind it, at the price of a
#: few array slices.  Once more than one key in this many has gone that
#: way, the rest of the batch takes the per-key loop.
FALLBACK_SHARE = 16

_META_FILE = "faster.meta.json"
_INDEX_FILE = "faster.index.bin"
_LOG_FILE = "faster.log"


class FasterKV(KVStore, CheckpointManager):
    """Single-node FASTER-style store with a file-backed hybrid log.

    Parameters
    ----------
    directory:
        Workspace for the log and checkpoint files (created if missing).
    ssd:
        Shared SSD cost model; a private one (with a private clock) is
        created when omitted, which is convenient for tests.
    memory_budget_bytes:
        Size of the in-memory log window — the "buffer size" axis of
        Figures 7, 9 and 10.
    page_bytes:
        Log page size.
    mutable_fraction:
        Fraction of the in-memory window that allows in-place updates.
    op_cpu_seconds:
        Simulated CPU cost charged per operation.
    """

    def __init__(
        self,
        directory: str,
        ssd: Optional[SSDModel] = None,
        memory_budget_bytes: int = 1 << 22,
        page_bytes: int = 1 << 15,
        mutable_fraction: float = 0.9,
        op_cpu_seconds: float = DEFAULT_OP_CPU_SECONDS,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        if ssd is None:
            ssd = SSDModel(SimClock())
        self.ssd = ssd
        self.clock = ssd.clock
        self.epochs = EpochManager()
        self.log = HybridLog(
            os.path.join(directory, _LOG_FILE),
            ssd,
            memory_budget_bytes=memory_budget_bytes,
            page_bytes=page_bytes,
            mutable_fraction=mutable_fraction,
        )
        self.index = HashIndex()
        self.op_cpu_seconds = op_cpu_seconds
        self._stats = StoreStats()
        self._closed = False

    # ------------------------------------------------------------------
    # KVStore interface
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        """Live counter block for this engine."""
        return self._stats

    def get(self, key: int) -> Optional[bytes]:
        """Point lookup through the hash index into the hybrid log."""
        self._charge_cpu()
        self._stats.gets += 1
        with self.epochs.guard():
            return self._get_in_epoch(key)

    def _get_in_epoch(self, key: int) -> Optional[bytes]:
        """One read (CPU pre-charged, epoch held); shared by get/multi_get."""
        return self._read_at(key, self.index.find(key))

    def _read_at(self, key: int, address: Optional[int]) -> Optional[bytes]:
        """Read ``key``'s record at its index entry (``None``: no entry)."""
        if address is None:
            self._stats.misses += 1
            return None
        _, record_key, value, from_memory = self.log.read_record(address)
        if record_key != key:
            raise StorageError(f"index corruption: wanted {key}, found {record_key}")
        if from_memory:
            self._stats.hits += 1
        else:
            self._stats.misses += 1
        return value

    def put(self, key: int, value: bytes) -> None:
        """Upsert: in place in the mutable region, appended otherwise."""
        self._check_writable()
        self._charge_cpu()
        self._stats.puts += 1
        with self.epochs.guard():
            self._upsert(key, value)

    def _upsert(self, key: int, value: bytes) -> int:
        """Insert/overwrite and return the (possibly unchanged) address."""
        address = self.index.find(key)
        if address is not None and self.log.in_mutable(address):
            word_handle = self.log.record_word(address)
            word = word_handle.load()
            _, _, generation, staleness = unpack_word(word)
            try:
                self.log.write_value_in_place(address, value)
            except StorageError:
                return self._append_new(key, value, generation, staleness, address)
            word_handle.store(pack_word(False, False, next_generation(generation), staleness))
            return address
        generation, staleness = FIRST_GENERATION, 0
        if address is not None and self.log.in_memory(address):
            old_word = self.log.record_word(address).load()
            _, _, generation, staleness = unpack_word(old_word)
        return self._append_new(key, value, generation, staleness, address)

    def _append_new(
        self,
        key: int,
        value: bytes,
        generation: int,
        staleness: int,
        old_address: Optional[int],
    ) -> int:
        word = pack_word(False, False, next_generation(generation), staleness)
        new_address = self.log.append(key, value, word)
        self.index.upsert(key, new_address)
        if old_address is not None and self.log.in_memory(old_address):
            self.log.record_word(old_address).set_replaced()
        return new_address

    def multi_get(self, keys) -> list:
        """Batched get: one epoch acquisition and amortized CPU per batch.

        Only the fixed per-op overhead amortizes.  Disk-resident records
        still pay one blocking random read each — a synchronous Get API
        cannot hide data stalls (the paper's Figure 2 premise); moving
        cold records at sequential cost is exclusively the job of
        look-ahead staging (:meth:`repro.core.mlkv.MLKV.lookahead`).

        The index resolves the whole batch at once.  Resident records of
        one width are copied out of the page arena with a single gather;
        absent, disk-resident and odd-width keys are read one by one in
        batch order (a read changes nothing another read depends on).
        """
        keys = self._normalize_keys(keys)
        with obs_span("kv.multi_get", clock=self.clock, engine="faster", keys=len(keys)):
            self._charge_batch_cpu(len(keys))
            self._stats.gets += len(keys)
            with self.epochs.guard():
                log = self.log
                # With nothing resident (a store just restored) every key
                # is a miss or a disk read: the arrays would buy nothing.
                resident = log.tail_address > log.head_address
                key_array = self._key_array(keys) if resident else None
                if key_array is None:
                    return [self._get_in_epoch(key) for key in keys]
                addresses = self.index.find_many(key_array)
                in_memory = np.flatnonzero(addresses >= log.head_address)
                offsets = log.arena_offsets(addresses[in_memory])
                headers = log.read_headers(offsets)
                width = int(headers["value_len"][0]) if len(in_memory) else 0
                plain = (headers["value_len"] == width) & (
                    headers["key"] == key_array[in_memory]
                )
                positions = in_memory[plain]
                values = log.read_values(offsets[plain], width)
                self._stats.hits += len(values)
                if len(values) == len(keys):
                    return values
                results: list = [None] * len(keys)
                others = np.ones(len(keys), dtype=bool)
                others[positions] = False
                for position, value in zip(positions.tolist(), values):
                    results[position] = value
                others = np.flatnonzero(others)
                for position, address in zip(others.tolist(), addresses[others].tolist()):
                    results[position] = self._read_at(
                        keys[position], address if address >= 0 else None
                    )
                return results

    def multi_put(self, keys, values) -> None:
        """Batched put: one epoch acquisition and amortized CPU per batch."""
        self._check_writable()
        keys, values = self._normalize_pairs(keys, values)
        with obs_span("kv.multi_put", clock=self.clock, engine="faster", keys=len(keys)):
            self._charge_batch_cpu(len(keys))
            self._stats.puts += len(keys)
            with self.epochs.guard():
                self._put_batch(keys, values, self._upsert, settle=False)

    # ------------------------------------------------------------------
    # batch resolution, shared with MLKV
    # ------------------------------------------------------------------
    @staticmethod
    def _key_array(keys: list) -> Optional[np.ndarray]:
        """``keys`` as a ``uint64`` array, or ``None`` when some key cannot
        be one (negative, too large, not an int): the batch then goes
        through the per-key methods and their treatment of such a key."""
        if len(keys) < FALLBACK_SHARE:
            # Setting the arrays up costs about as much as this many
            # per-key operations, and a batch this short cannot afford a
            # single fallback anyway.
            return None
        try:
            return np.array(keys, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            return None

    @staticmethod
    def _has_duplicates(key_array: np.ndarray) -> bool:
        ordered = np.sort(key_array)
        return bool((ordered[1:] == ordered[:-1]).any())

    def _resolve(
        self, key_array: np.ndarray, floor: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index entries, arena offsets and record headers of a batch.

        ``floor`` is the lowest log address the caller will touch in
        memory (the head or above).  Offsets and headers mean something
        only where ``addresses >= floor``; elsewhere they describe
        whatever sits at arena offset 0, so that every batch position has
        a row and callers mask by address.
        """
        addresses = self.index.find_many(key_array)
        offsets = self.log.arena_offsets(addresses)
        offsets[addresses < floor] = 0
        return addresses, offsets, self.log.read_headers(offsets)

    def _put_batch(
        self,
        keys: list,
        values: list,
        put_one: Callable[[int, bytes], object],
        settle: bool,
    ) -> None:
        """Apply a batch of puts in order (epoch held, CPU pre-charged).

        Distinct keys with values of one width go through
        :meth:`_put_runs` for as long as that pays; ``put_one`` (the
        per-key put) takes the rest of the batch, or all of it.
        """
        done = 0
        widths = set(map(len, values))
        key_array = self._key_array(keys) if len(widths) == 1 else None
        if key_array is not None and not self._has_duplicates(key_array):
            done = self._put_runs(keys, values, key_array, widths.pop(), put_one, settle)
        for position in range(done, len(keys)):
            put_one(keys[position], values[position])

    def _put_runs(
        self,
        keys: list,
        values: list,
        key_array: np.ndarray,
        width: int,
        put_one: Callable[[int, bytes], object],
        settle: bool,
    ) -> int:
        """Put a prefix of the batch, plain keys as arrays; returns its length.

        A key is *plain* when its newest record is in the mutable region,
        already holds ``width`` bytes and is neither locked nor replaced:
        its put overwrites the value in place and releases the latch word
        (``settle``: with one taken off the staleness, MLKV's Put half),
        and a run of such keys is two scatters.  Any other key goes to
        ``put_one`` at its turn.  That appends, which moves the read-only
        boundary up, so the next run ends at the first record now below
        the boundary: every in-place write lands before a later append
        can flush its page.
        """
        log = self.log
        count = len(keys)
        addresses, offsets, headers = self._resolve(key_array, log.read_only_address)
        words = headers["word"]
        in_place = (headers["value_len"] == width) & (word_flags(words) == 0)
        fallbacks_left = count // FALLBACK_SHARE
        plain = np.count_nonzero(in_place & (addresses >= log.read_only_address))
        if count - plain > fallbacks_left:
            return 0
        staleness = word_staleness(words)
        if settle:
            staleness -= staleness > 0
        words = released_words(words, staleness)
        rows = np.frombuffer(b"".join(values), dtype=np.uint8).reshape(count, width)
        cursor = 0
        while True:
            blocked = ~in_place[cursor:] | (addresses[cursor:] < log.read_only_address)
            stop = cursor + int(blocked.argmax()) if blocked.any() else count
            if stop > cursor:
                log.write_words(offsets[cursor:stop], words[cursor:stop])
                log.write_values(offsets[cursor:stop], rows[cursor:stop])
            if stop == count or not fallbacks_left:
                return stop
            fallbacks_left -= 1
            put_one(keys[stop], values[stop])
            cursor = stop + 1

    def rmw(self, key: int, update: Callable[[Optional[bytes]], bytes]) -> bytes:
        """Read-modify-write one record through ``update``."""
        self._check_writable()
        self._charge_cpu()
        self._stats.gets += 1
        self._stats.puts += 1
        with self.epochs.guard():
            address = self.index.find(key)
            current: Optional[bytes] = None
            if address is not None:
                _, _, current, from_memory = self.log.read_record(address)
                if from_memory:
                    self._stats.hits += 1
                else:
                    self._stats.misses += 1
            else:
                self._stats.misses += 1
            new_value = update(current)
            self._upsert(key, new_value)
            return new_value

    def delete(self, key: int) -> bool:
        """Tombstone the key; returns whether it was present."""
        self._check_writable()
        self._charge_cpu()
        self._stats.deletes += 1
        with self.epochs.guard():
            address = self.index.find(key)
            if address is None:
                return False
            word = pack_word(False, False, FIRST_GENERATION, 0)
            self.log.append_tombstone(key, word)
            self.index.remove(key)
            return True

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """All live records, in hash-index order."""
        with self.epochs.guard():
            for key, address in list(self.index.items()):
                _, _, value, _ = self.log.read_record(address)
                if value is not None:
                    yield key, value

    def __len__(self) -> int:
        return len(self.index)

    def close(self) -> None:
        """Close the hybrid log and release the store."""
        if not self._closed:
            self.log.close()
            self._closed = True

    # ------------------------------------------------------------------
    # checkpoint / recovery
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Persist log + index so :meth:`recover` can rebuild the store."""
        self.log.flush_all()
        # ``<Q`` entry count, then one ``<QQ`` (key, address) pair per entry.
        keys, addresses = self.index.entries()
        image = np.empty(1 + 2 * len(keys), dtype="<u8")
        image[0] = len(keys)
        image[1::2] = keys
        image[2::2] = addresses
        with open(os.path.join(self.directory, _INDEX_FILE), "wb") as f:
            f.write(image)
        self.ssd.sequential_write(image.nbytes, blocking=True)
        meta = {
            "tail_address": self.log.tail_address,
            "head_address": self.log.head_address,
            "read_only_address": self.log.read_only_address,
            "page_bytes": self.log.page_bytes,
        }
        tmp = os.path.join(self.directory, _META_FILE + ".tmp")
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, os.path.join(self.directory, _META_FILE))

    @classmethod
    def recover(
        cls,
        directory: str,
        ssd: Optional[SSDModel] = None,
        **store_kwargs,
    ) -> "FasterKV":
        """Rebuild a store from its checkpoint files.

        ``store_kwargs`` are forwarded to the constructor (subclasses add
        their own knobs, e.g. MLKV's ``staleness_bound``); ``page_bytes``
        always comes from the checkpoint metadata so recovered log
        addresses stay valid.
        """
        meta_path = os.path.join(directory, _META_FILE)
        if not os.path.exists(meta_path):
            raise CheckpointError(f"no checkpoint metadata in {directory}")
        with open(meta_path) as f:
            meta = json.load(f)
        store_kwargs.pop("page_bytes", None)
        store = cls(
            directory,
            ssd=ssd,
            page_bytes=meta["page_bytes"],
            **store_kwargs,
        )
        # After recovery the whole log body lives on disk; reads fault in.
        store.log.reset_resident(meta["tail_address"])
        index_path = os.path.join(directory, _INDEX_FILE)
        if os.path.exists(index_path):
            image = np.fromfile(index_path, dtype="<u8")
            count = int(image[0]) if image.size else -1
            if image.size != 1 + 2 * count:
                raise CheckpointError(f"index snapshot in {directory} is truncated")
            store.ssd.sequential_read(8 + 16 * count, blocking=True)
            store.index.upsert_many(
                image[1 : 1 + 2 * count : 2], image[2 : 2 + 2 * count : 2].astype(np.int64)
            )
        else:
            # Fuzzy fallback: rebuild the index by scanning the log.
            for address, _, key, value_len in store.log.scan_addresses():
                if value_len == TOMBSTONE_LEN:
                    store.index.remove(key)
                else:
                    store.index.upsert(key, address)
        return store

    @classmethod
    def restore(cls, directory: str, **kwargs) -> "FasterKV":
        """Reopen from a durable image (:class:`CheckpointManager` API)."""
        return cls.recover(directory, **kwargs)

    # ------------------------------------------------------------------
    def _charge_cpu(self) -> None:
        if self.op_cpu_seconds:
            self.clock.advance(self.op_cpu_seconds, component="cpu")
