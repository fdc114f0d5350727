"""The MLKV store: FASTER plus latch-free vector clocks and Lookahead.

Get/Put follow the concurrency protocol of paper §III-C1 exactly:

* a **Get** first spins until the record's staleness counter admits it
  (≤ ``staleness_bound``), then — with one compare-and-swap — verifies the
  record is unlocked, not replaced, and at the observed generation, and
  swaps in a word with the locked bit set and staleness **incremented**;
* a **Put** skips the admission wait (it only reduces staleness) and its
  CAS swaps in a locked word with staleness **decremented**;
* after reading/updating the value, the release step clears the lock and
  bumps the generation; a read-copy-update additionally sets the old
  copy's replaced bit so racing operations re-resolve the address.

When a Get cannot admit, MLKV invokes the registered *stall handler* —
the training engine's "apply pending embedding updates" hook — and
retries.  The time the handler spends applying updates is exactly the
data-stall time of Figure 2; MLKV counts stall events and stall seconds
in :class:`MLKVStats` so the figures can report it.

The "user disables bounded staleness consistency" configuration of
§IV-E (memory overhead only, no CPU overhead) is :class:`FasterKV` over
the same log: the latch words stay in the records, and nothing reads or
writes them on the hot path.

The batched operations run the same protocol on arrays.  A batch is
resolved through the index once; its *plain* keys — records of one width
that are not locked or replaced and within the bound, whether the clock
sits in a resident record's latch word or, for a record on disk, in the
overflow table — have the Get or Put done to all of them with a few array
operations: one gather and one scatter on the words, one positional read
per cold record and one bulk update of the overflow table, one block
append for the Puts that need a new copy.  Every other key (its Get would
stall or finds nothing, its record is locked or of another width, its
append opens a log page) goes to the per-key method above at its turn in
the batch, because what it does — run the stall handler, evict a page —
changes the words, addresses and region boundaries the keys behind it
see.  The per-key methods are thus the one implementation of every slow
case and the reference the batched paths are tested against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.errors import StalenessViolation, StorageError, checkpoint_fields
from repro.errors import load_checkpoint_json, write_checkpoint_json
from repro.kv.api import piece_values
from repro.kv.faster.record import (
    MAX_STALENESS,
    RECORD_HEADER_BYTES,
    next_generation,
    pack_word,
    released_words,
    replaced_words,
    restaled_words,
    unpack_word,
    word_flags,
    word_staleness,
)
from repro.kv.faster.store import FALLBACK_SHARE, FasterKV, PutProtocol
from repro.core.staleness import ASP_BOUND, ConsistencyMode, mode_for_bound
from repro.obs.trace import span as obs_span

#: Extra CPU charged per op for vector-clock maintenance (≈ the <10%
#: uniform / <20% zipfian overhead measured in Figure 10).
CLOCK_OVERHEAD_SECONDS = 0.08e-6

#: Give up after this many stall-handler invocations for one Get.
_MAX_STALL_ROUNDS = 1_000_000

#: Sidecar persisting the vector-clock state across checkpoint/restore.
_STALENESS_FILE = "mlkv.staleness.json"


@dataclass
class MLKVStats:
    """Counters specific to MLKV's optimizations."""

    stall_events: int = 0
    stall_seconds: float = 0.0
    cas_retries: int = 0
    lookahead_copied: int = 0
    #: Staged records that left memory before a Get or a committed read
    #: read them: the look-ahead window outran the buffer (thrash).
    lookahead_evicted_unread: int = 0
    lookahead_skipped_memory: int = 0
    lookahead_requests: int = 0
    overflow_entries: int = 0


def _counts(values, count: int) -> np.ndarray:
    """``count`` overflow-table entries as an array the word helpers take."""
    return np.fromiter(values, dtype=np.uint64, count=count)


def _settled_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`MLKV._put_in_memory` on arrays: one taken off the staleness
    and the next generation on the record written; on a copy left behind,
    the same staleness, the replaced bit and one generation more (the
    latch was taken, the copy marked, the latch released)."""
    staleness = word_staleness(words)
    staleness -= staleness > 0
    updated = released_words(words, staleness)
    return updated, replaced_words(released_words(updated, staleness))


def _read_keys(keys: list) -> np.ndarray:
    """The keys of a list that a record can have (``uint64``) as an array."""
    try:
        return np.array(keys, dtype=np.uint64)
    except OverflowError:
        return np.array([key for key in keys if 0 <= key < 1 << 64], dtype=np.uint64)


class _UnreadStaged:
    """The staged copies no Get or committed read has read yet.

    One entry a key — the address of its newest staged copy — in two
    arrays ordered by key.  Staging a key again replaces its entry, and a
    read of the key removes it, whichever copy the read found.  A staged
    copy that leaves memory leaves the ledger with it: :meth:`sweep`
    counts the entries below the log's head.
    """

    def __init__(self) -> None:
        self.keys = np.empty(0, dtype=np.uint64)
        self.addresses = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.keys)

    def stage(self, keys: np.ndarray, addresses: np.ndarray) -> None:
        """Enter copies of ``keys`` (``uint64``) staged at ``addresses``;
        of a key staged twice, the later copy stands."""
        merged = np.concatenate((self.keys, keys))
        order = np.argsort(merged, kind="stable")  # a key's later entries sort after it
        ordered = merged[order]
        last = np.empty(len(ordered), dtype=bool)
        last[-1:] = True
        np.not_equal(ordered[1:], ordered[:-1], out=last[:-1])
        self.keys = ordered[last]
        self.addresses = np.concatenate((self.addresses, addresses))[order[last]]

    def read(self, keys: np.ndarray) -> None:
        """``keys`` (``uint64``) have been read: drop their entries.

        A few keys are searched for one by one; a batch about as long as
        the ledger is merged with it in one stable argsort, which costs
        less than its searches from a quarter of the ledger's length on
        (3,500 entries, 2-vCPU host: 36 against 33 µs at 1,024 keys, 50
        against 134 at 3,669).
        """
        count = len(self.keys)
        if 4 * len(keys) < count:
            at = np.minimum(np.searchsorted(self.keys, keys), count - 1)
            read = at[self.keys[at] == keys]
        else:
            merged = np.concatenate((self.keys, keys))
            order = np.argsort(merged, kind="stable")
            ordered = merged[order]
            # An entry's key sorts just before the read keys equal to it.
            equal = np.zeros(len(ordered), dtype=bool)
            np.equal(ordered[1:], ordered[:-1], out=equal[:-1])
            read = order[equal & (order < count)]
        if len(read):
            keep = np.ones(count, dtype=bool)
            keep[read] = False
            self.keys, self.addresses = self.keys[keep], self.addresses[keep]

    def sweep(self, head: int) -> int:
        """Drop the entries below ``head``; returns how many there were."""
        evicted = self.addresses < head
        count = int(np.count_nonzero(evicted))
        if count:
            keep = ~evicted
            self.keys, self.addresses = self.keys[keep], self.addresses[keep]
        return count


class _GetBatch(NamedTuple):
    """A classified stretch of a batched Get (:meth:`MLKV._get_runs`).

    Positions count from the stretch's first key and come in ascending
    order.  ``keys`` are the stretch's keys and ``addresses`` their index
    entries, ``rows`` holds every plain key's value.  ``resident`` lists
    the plain keys in memory (``offsets`` and ``words``, indexed by
    position: where their latch words live and what an admitted Get
    leaves there); ``cold`` lists the plain keys on disk, with the key and
    the overflow-table entry an admitted Get leaves for each.
    """

    keys: np.ndarray
    addresses: np.ndarray
    rows: np.ndarray
    resident: np.ndarray
    offsets: np.ndarray
    words: np.ndarray
    cold: np.ndarray
    cold_keys: list
    cold_staleness: list


class MLKV(FasterKV):
    """Bounded-staleness, lookahead-capable key-value store.

    Parameters
    ----------
    directory:
        Workspace directory (hybrid log + checkpoints).
    staleness_bound:
        Per-key bound on outstanding Gets; 0 = BSP, ``ASP_BOUND`` = ASP.
    **store_kwargs:
        Forwarded to :class:`~repro.kv.faster.store.FasterKV`
        (``ssd``, ``memory_budget_bytes``, ``page_bytes``, ...).
    """

    def __init__(
        self,
        directory: str,
        staleness_bound: int = ASP_BOUND,
        **store_kwargs,
    ) -> None:
        if staleness_bound < 0:
            raise ValueError("staleness_bound must be non-negative")
        super().__init__(directory, **store_kwargs)
        self.staleness_bound = staleness_bound
        self.mlkv_stats = MLKVStats()
        self._stall_handler: Optional[Callable[[int], bool]] = None
        # Rare-path fallback: staleness counters for records whose word
        # left memory while they still had outstanding Gets.
        self._overflow_staleness: dict[int, int] = {}
        # Staged copies no Get has read yet, for :meth:`_sweep_staged` to
        # count the ones evicted unread.
        self._unread = _UnreadStaged()

    @property
    def mode(self) -> ConsistencyMode:
        return mode_for_bound(self.staleness_bound)

    def set_stall_handler(self, handler: Optional[Callable[[int], bool]]) -> None:
        """Register the hook invoked when a Get exceeds the bound.

        The handler receives the blocked key and returns ``True`` if it
        made progress (applied at least one pending update); returning
        ``False`` aborts the Get with :class:`StalenessViolation`.
        """
        self._stall_handler = handler

    # ------------------------------------------------------------------
    # Get / Put with the vector-clock protocol
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[bytes]:
        self._charge_clock_overhead()
        self._stats.gets += 1
        return self._get_bounded(key)

    def _get_bounded(self, key: int) -> Optional[bytes]:
        """Admission loop of one bounded-staleness Get (CPU pre-charged).

        The key is resolved through the index again after every run of the
        stall handler: the updates it applied may have moved the record —
        a Put of a record on disk appends its new copy at the tail, with
        the clock of its overflow entry — so a Get admitted after a stall
        reads the newest copy, wherever it is by then.
        """
        rounds = 0
        while True:
            address = self.index.find(key)
            if address is None:
                self._stats.misses += 1
                return None
            if self.log.in_memory(address):
                admitted, value = self._try_get_in_memory(key, address)
            else:
                admitted, value = self._try_get_from_disk(key, address)
            if admitted:
                self._note_reads([key])
                return value
            rounds += 1
            if rounds > _MAX_STALL_ROUNDS:
                raise StalenessViolation(
                    f"key {key} stuck beyond bound {self.staleness_bound}"
                )
            self._run_stall_handler(key)

    def _try_get_in_memory(self, key: int, address: int) -> tuple[bool, Optional[bytes]]:
        """One admission attempt; returns ``(admitted, value)``."""
        handle = self.log.record_word(address)
        word = handle.load()
        locked, replaced, generation, staleness = unpack_word(word)
        if replaced:
            # Address superseded between index lookup and word read; the
            # caller loops and re-resolves through the index.
            self.mlkv_stats.cas_retries += 1
            return False, None
        if staleness > self.staleness_bound:
            self.mlkv_stats.stall_events += 1
            return False, None
        if locked:
            self.mlkv_stats.cas_retries += 1
            return False, None
        desired = pack_word(True, False, generation, staleness + 1)
        if not handle.compare_and_swap(word, desired):
            self.mlkv_stats.cas_retries += 1
            return False, None
        try:
            _, record_key, value, _ = self.log.read_record(address)
            if record_key != key:
                raise StorageError(f"index corruption: wanted {key}, got {record_key}")
            self._stats.hits += 1
            return True, value
        finally:
            handle.store(pack_word(False, False, next_generation(generation), staleness + 1))

    def _try_get_from_disk(self, key: int, address: int) -> tuple[bool, Optional[bytes]]:
        """One admission attempt on a record on disk, its clock kept in the
        overflow table: a blocking read once admitted."""
        staleness = self._overflow_staleness.get(key, 0)
        if staleness > self.staleness_bound:
            self.mlkv_stats.stall_events += 1
            return False, None
        _, record_key, value, _ = self.log.read_record(address)
        if record_key != key:
            raise StorageError(f"index corruption: wanted {key}, got {record_key}")
        self._stats.misses += 1
        self._overflow_staleness[key] = staleness + 1
        self.mlkv_stats.overflow_entries = len(self._overflow_staleness)
        return True, value

    def put(self, key: int, value: bytes) -> None:
        self._check_writable()
        self._charge_clock_overhead()
        self._stats.puts += 1
        self._put_bounded(key, value)
        self._sweep_staged()

    def _put_bounded(self, key: int, value: bytes) -> None:
        """One bounded-staleness Put (CPU pre-charged)."""
        address = self.index.find(key)
        if address is not None and self.log.in_memory(address):
            self._put_in_memory(key, address, value)
        else:
            # Disk-resident or fresh key: settle overflow staleness and
            # append a new copy at the tail.  What is left of it moves
            # into the new copy's word, the one place later Puts settle.
            staleness = max(0, self._overflow_staleness.pop(key, 0) - 1)
            word = pack_word(False, False, 1, staleness)
            new_address = self.log.append(key, value, word)
            self.index.upsert(key, new_address)

    def _put_in_memory(self, key: int, address: int, value: bytes) -> None:
        while True:
            handle = self.log.record_word(address)
            word = handle.load()
            locked, replaced, generation, staleness = unpack_word(word)
            if replaced:
                refreshed = self.index.find(key)
                if refreshed is None or refreshed == address:
                    raise StorageError(f"replaced record for {key} has no successor")
                address = refreshed
                self.mlkv_stats.cas_retries += 1
                continue
            if locked:
                self.mlkv_stats.cas_retries += 1
                continue
            new_staleness = max(0, staleness - 1)
            desired = pack_word(True, False, generation, new_staleness)
            if not handle.compare_and_swap(word, desired):
                self.mlkv_stats.cas_retries += 1
                continue
            try:
                if self.log.in_mutable(address):
                    try:
                        self.log.write_value_in_place(address, value)
                        return
                    except StorageError:
                        pass  # length changed: fall through to RCU below
                new_word = pack_word(False, False, next_generation(generation), new_staleness)
                new_address = self.log.append(key, value, new_word)
                self.index.upsert(key, new_address)
                if self.log.in_memory(address):
                    handle.set_replaced()
                return
            finally:
                # Release the lock on the (possibly superseded) old copy —
                # unless the append pushed its page out of memory.  Then
                # the page went to the file as it stood, and the handle's
                # place in the arena belongs to a newer page.
                if self.log.in_memory(address):
                    _, replaced_now, gen_now, stale_now = unpack_word(handle.load())
                    handle.store(
                        pack_word(False, replaced_now, next_generation(gen_now), stale_now)
                    )

    def rmw(self, key: int, update) -> bytes:
        """Read-modify-write through the vector-clock protocol.

        The Get half admits under the bound and increments staleness; the
        Put half settles it, so a completed RMW leaves the clock where it
        started — matching the 50/50 YCSB workload of §IV-E.
        """
        new_value = update(self.get(key))
        self.put(key, new_value)
        return new_value

    def _get_many(self, keys) -> list:
        """Batched Get under the vector-clock protocol.

        The staleness bound is per key, so admission is decided per key —
        for the plain keys by one comparison over the batch's latch
        words, see :meth:`_get_runs` — while the fixed per-op cost
        amortizes: one batch CPU charge instead of a full op charge per
        key.  The word CAS work itself cannot be amortized and stays a
        per-key clock charge.  Keys that stall run the stall handler
        exactly as a looped Get would, at their turn, so batched and
        looped reads admit identically.
        """
        with obs_span("kv.multi_get", clock=self.clock, engine="mlkv", keys=len(keys)):
            self._charge_batch_cpu(len(keys))
            if len(keys):
                self.clock.advance(CLOCK_OVERHEAD_SECONDS * len(keys), component="cpu")
            self._stats.gets += len(keys)
            key_array = self._key_array(keys)
            pieces: list = []
            done = 0
            if key_array is not None and not self._has_duplicates(key_array):
                done = self._get_runs(key_array, pieces)
            rest = self._normalize_keys(keys[done:])
            return pieces + [self._get_bounded(key) for key in rest]

    def _get_runs(self, key_array: np.ndarray, pieces: list) -> int:
        """Get a prefix of the batch into ``pieces``; returns its length.

        A key is *plain* when its newest record is as wide as the batch's
        other records and its Get would be admitted at once: a resident
        record neither locked nor replaced whose latch word is within the
        bound, or a record on disk whose overflow-table entry is.  The Get
        of the first bumps staleness and generation in the latch word and
        copies the value out of the arena; the Get of the second bumps the
        overflow entry, reads the record from the file and pays one
        blocking random read.  A run of plain keys is one word scatter,
        one row gather, one positional read per cold record, one bulk
        update of the overflow table and one device charge that books the
        run's cold reads in order.  Any other key goes to
        :meth:`_get_bounded` at its turn.  If that ran the stall handler,
        pending updates were applied — in place or by appending — so the
        words, addresses and region boundaries of the remaining keys are
        read afresh before the next run; a cold record already fetched is
        read again only if its key has moved since.  Stops early once too
        many keys have taken the per-key path (``FALLBACK_SHARE``).
        """
        count = len(key_array)
        stats = self.mlkv_stats
        limit = min(self.staleness_bound, MAX_STALENESS - 1)
        overflow = self._overflow_staleness
        fallbacks_left = count // FALLBACK_SHARE
        fetched = None  # cold records the previous classification read
        start = 0
        while start < count:
            # Classify keys[start:]; positions below are relative to start.
            addresses, rows, resident, read, offsets, words = self._read_plain(
                key_array[start:], fetched
            )
            staleness = word_staleness(words)
            resident &= (word_flags(words) == 0) & (staleness <= limit)
            cold = np.flatnonzero(read)
            cold_keys = key_array[start:][cold].tolist()
            cold_staleness = _counts(map(overflow.get, cold_keys, repeat(0)), len(cold_keys))
            admitted = cold_staleness <= min(self.staleness_bound, ASP_BOUND)
            if not admitted.all():
                cold, cold_staleness = cold[admitted], cold_staleness[admitted]
                cold_keys = key_array[start:][cold].tolist()
            plain = resident.copy()
            plain[cold] = True
            others = np.flatnonzero(~plain).tolist()
            if len(others) > fallbacks_left:
                return start
            batch = _GetBatch(
                key_array[start:], addresses, rows, np.flatnonzero(resident), offsets,
                released_words(words, staleness + np.uint64(1)),
                cold, cold_keys, (cold_staleness + 1).tolist(),
            )
            others.append(count - start)  # each run ends at the next of these
            self._admit_run(batch, 0, others[0], pieces)
            served = others[0]
            for position, run_end in zip(others, others[1:]):
                fallbacks_left -= 1
                # Every path to the stall handler counts one of these first.
                handler_runs = stats.stall_events + stats.cas_retries
                pieces.append(self._get_bounded(int(key_array[start + position])))
                served = position + 1
                if stats.stall_events + stats.cas_retries != handler_runs:
                    break
                self._admit_run(batch, position + 1, run_end, pieces)
                served = run_end
            fetched = addresses[served:], rows[served:], read[served:]
            start += served
        return count

    def _admit_run(self, batch: "_GetBatch", first: int, stop: int, pieces: list) -> None:
        """Admit the plain keys at positions ``first`` to ``stop`` of a
        classified batch: store the resident records' released words, bump
        the cold records' overflow entries and book their reads, append
        the values to ``results``, and take the keys off the unread
        ledger."""
        if stop <= first:
            return
        low, high = np.searchsorted(batch.resident, (first, stop))
        if high > low:
            chosen = batch.resident[low:high]
            self.log.write_words(batch.offsets[chosen], batch.words[chosen])
            self._stats.hits += int(high - low)
        low, high = np.searchsorted(batch.cold, (first, stop))
        if high > low:
            self._overflow_staleness.update(
                zip(batch.cold_keys[low:high], batch.cold_staleness[low:high])
            )
            self.mlkv_stats.overflow_entries = len(self._overflow_staleness)
            self._charge_cold_reads(
                RECORD_HEADER_BYTES + batch.rows.shape[1], int(high - low)
            )
        self._note_reads(batch.keys[first:stop])
        pieces.append(batch.rows[first:stop])

    def _put_many(self, keys, values) -> None:
        """Batched Put: one CPU charge per batch, per-key clock updates.

        Keys whose records can be updated in place have value and latch
        word written as arrays, and the new copies of keys that need one —
        read-only or on disk, their clock settled in the word or in the
        overflow table — are appended as one block per log page; the
        others take :meth:`_put_bounded` at their turn (see
        :meth:`~repro.kv.faster.store.FasterKV._put_runs`).
        """
        with obs_span("kv.multi_put", clock=self.clock, engine="mlkv", keys=len(keys)):
            self._charge_batch_cpu(len(keys))
            if len(keys):
                self.clock.advance(CLOCK_OVERHEAD_SECONDS * len(keys), component="cpu")
            self._stats.puts += len(keys)
            self._put_batch(
                keys, values,
                PutProtocol(self._put_bounded, _settled_words, self._settled_fresh_words),
            )
        self._sweep_staged()

    def delete(self, key: int) -> bool:
        """Tombstone the key (FASTER's delete); returns whether it was present."""
        removed = super().delete(key)
        self._sweep_staged()  # the tombstone's append may evict a page
        return removed

    def _settled_fresh_words(self, keys: list) -> np.ndarray:
        """The disk branch of :meth:`_put_bounded` for a run of keys: each
        takes what its overflow entry leaves of the clock into the word of
        its new copy."""
        staleness = _counts(map(self._overflow_staleness.pop, keys, repeat(0)), len(keys))
        staleness -= staleness > 0
        return staleness | np.uint64(pack_word(False, False, 1, 0))

    def snapshot_read(self, key: int) -> Optional[bytes]:
        """Committed read for evaluation and serving: no admission, no
        clock update."""
        self._note_reads([key])
        return super().get(key)

    def snapshot_read_many(self, keys) -> list:
        """Batched committed reads (no admission, no clock updates).

        Uses FASTER's batched path directly: the vector-clock protocol is
        bypassed entirely, as evaluation reads require.
        """
        keys = self._normalize_keys(keys)
        self._note_reads(keys)
        return piece_values(FasterKV._get_many(self, keys))

    def staleness_of(self, key: int) -> int:
        """Current vector-clock value for ``key`` (0 if unknown)."""
        address = self.index.find(key)
        if address is None:
            return 0
        if self.log.in_memory(address):
            _, _, _, staleness = unpack_word(self.log.record_word(address).load())
            return staleness
        return self._overflow_staleness.get(key, 0)

    # ------------------------------------------------------------------
    # Look-ahead prefetching (paper §III-C2)
    # ------------------------------------------------------------------
    def lookahead(self, keys) -> int:
        """Asynchronously stage disk-resident ``keys`` into the mutable buffer.

        Records already in memory are skipped — the immutable-region skip
        is the paper's "do not copy into mutable memory" optimization that
        avoids re-writing those pages to disk.  Disk records are read at
        sequential background cost and re-appended at the tail with their
        original word (staleness preserved), then the index is swung to
        the new copy.  Returns the number of records copied.

        ``keys`` is an iterable of ints; an integer array stays one until
        the per-key path.  The batch is resolved
        through the index at once and its cold records are charged as one
        page-granular scan in log-address order.  Distinct keys are then
        staged as arrays: one positional read per record, their overflow
        entries folded into the words in one pass, one block append per
        log page (:meth:`~repro.kv.faster.hybridlog.HybridLog.append_many`)
        and one swing of the index.  A record that is not what the index
        promised (another key, a tombstone, another width than the batch's
        first, a torn read) takes :meth:`_stage_one` at its turn, as every
        record of a short batch or one with repeated keys does.
        """
        if not isinstance(keys, np.ndarray):
            keys = self._normalize_keys(keys)
        self.mlkv_stats.lookahead_requests += len(keys)
        key_array = self._key_array(keys)
        if key_array is not None:
            slots, addresses = self.index.locate_many(key_array)
            rebuilds = self.index.rebuilds
        else:
            keys = self._normalize_keys(keys)
            found = map(self.index.find, keys)
            addresses = np.array(
                [-1 if address is None else address for address in found], dtype=np.int64
            )
        self.mlkv_stats.lookahead_skipped_memory += int(
            np.count_nonzero(addresses >= self.log.head_address)
        )
        on_disk = np.flatnonzero((addresses >= 0) & (addresses < self.log.head_address))
        on_disk = on_disk[np.argsort(addresses[on_disk], kind="stable")]
        addresses = addresses[on_disk]
        # One page-granular sequential scan covers the whole batch.
        self.log.charge_prefetch_pages(addresses)
        if key_array is not None and len(on_disk) and not self._has_duplicates(key_array):
            staged_keys = key_array[on_disk]
            staged_at = self._stage_runs(staged_keys, addresses, slots[on_disk], rebuilds)
        else:
            keys = self._normalize_keys(keys)
            staged_keys = np.array([keys[position] for position in on_disk.tolist()], dtype=np.uint64)
            staged_at = np.array(
                list(map(self._stage_one, staged_keys.tolist(), addresses.tolist())),
                dtype=np.int64,
            )
        copied = staged_at >= 0
        self._unread.stage(staged_keys[copied], staged_at[copied])
        count = int(np.count_nonzero(copied))
        self.mlkv_stats.lookahead_copied += count
        self._sweep_staged()
        return count

    def lookahead_capacity(self, value_bytes: int) -> int:
        """Records of ``value_bytes``-byte values the mutable region holds
        (:meth:`~repro.kv.faster.hybridlog.HybridLog.mutable_records`).
        Stage more than that ahead of their Puts and the first copies are
        read-only when the Puts land: each appends a copy of its own, and
        the appends push staged copies out of memory unread."""
        return self.log.mutable_records(RECORD_HEADER_BYTES + value_bytes)

    def _note_reads(self, keys) -> None:
        """A Get or a committed read has read ``keys`` (a ``uint64`` array
        or a list): their staged copies leave the unread ledger."""
        if len(self._unread):
            self._unread.read(keys if isinstance(keys, np.ndarray) else _read_keys(keys))

    def _sweep_staged(self) -> None:
        """Count the staged copies below the head, unread, as evicted."""
        if len(self._unread):
            self.mlkv_stats.lookahead_evicted_unread += self._unread.sweep(self.log.head_address)

    def _stage_one(self, key: int, address: int) -> int:
        """Copy ``key``'s record at disk ``address`` to the tail (device
        time already charged); the copy's address, or -1 when the record
        was not there to copy."""
        word, record_key, value = self.log.prefetch_read(address, charge=False)
        if record_key != key or value is None:
            return -1
        # Fold the overflow-table delta (Gets served while the record was
        # on disk) back into the staged word, so the in-memory clock is
        # authoritative again.
        overflow = self._overflow_staleness.pop(key, 0)
        if overflow:
            locked, replaced, generation, staleness = unpack_word(word)
            staleness = min(staleness + overflow, MAX_STALENESS)
            word = pack_word(locked, replaced, generation, staleness)
        new_address = self.log.append(key, value, word)
        if not self.index.compare_exchange(key, address, new_address):
            return -1
        return new_address

    def _stage_runs(
        self, key_array: np.ndarray, addresses: np.ndarray, slots: np.ndarray, rebuilds: int
    ) -> np.ndarray:
        """:meth:`_stage_one` for distinct keys in log-address order, the
        records that are what the index promised as arrays; returns the
        address of each key's copy, -1 where none was made.  ``slots`` are
        where the index held the keys after ``rebuilds`` rebuilds
        (:meth:`~repro.kv.faster.hashindex.HashIndex.locate_many`)."""
        log = self.log
        width = log.disk_value_len(int(addresses[0]))
        headers, rows, complete = log.read_disk_records(addresses, width)
        plain = complete & (headers["value_len"] == width) & (headers["key"] == key_array)
        settle = self._overflow_staleness.pop
        words = headers["word"]
        staged_at = np.full(len(plain), -1, dtype=np.int64)
        first = 0
        for stop in np.flatnonzero(~plain).tolist() + [len(plain)]:
            if stop > first:
                run = slice(first, stop)
                folded = _counts(map(settle, key_array[run].tolist(), repeat(0)), stop - first)
                staleness = np.minimum(word_staleness(words[run]) + folded, MAX_STALENESS)
                staged_at[run] = log.append_many(
                    key_array[run], rows[run], restaled_words(words[run], staleness)
                )
                self.index.swing_many(key_array[run], staged_at[run], slots[run], rebuilds)
            if stop < len(plain):
                staged_at[stop] = self._stage_one(int(key_array[stop]), int(addresses[stop]))
            first = stop + 1
        return staged_at

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """FASTER checkpoint plus the vector-clock state.

        In-memory word staleness needs no separate handling: the flushed
        log pages carry every record's packed word, staleness included.
        Only the overflow table — the *delta* accumulated by Gets served
        while a record was disk-resident, folded onto the word by
        :meth:`lookahead` — must ride along as a sidecar, exactly as it
        stood, so a resumed run sees the same per-key admission state the
        killed run had.
        """
        super().checkpoint()
        overflow = {str(key): value for key, value in self._overflow_staleness.items()}
        write_checkpoint_json(
            os.path.join(self.directory, _STALENESS_FILE),
            {"staleness_bound": self.staleness_bound, "overflow": overflow},
        )

    @classmethod
    def restore(cls, directory: str, **kwargs) -> "MLKV":
        """Reopen from a durable image, reloading the vector-clock state.

        The checkpointed ``staleness_bound`` is re-applied unless the
        caller overrides it — a BSP/SSP store must not silently reopen as
        ASP, or the resumed run's admission behavior would diverge from
        the killed run's.
        """
        path = os.path.join(directory, _STALENESS_FILE)
        bound = overflow = None
        if os.path.exists(path):
            saved = load_checkpoint_json(path)
            with checkpoint_fields(path):
                bound = saved["staleness_bound"]
                overflow = {int(key): count for key, count in saved["overflow"].items()}
                numbers = [bound, *overflow, *overflow.values()]
                if not all(type(number) is int and number >= 0 for number in numbers):
                    raise ValueError("bound, keys and counts must be non-negative integers")
        bound_overridden = "staleness_bound" in kwargs
        store = cls.recover(directory, **kwargs)
        if overflow is not None:
            if not bound_overridden:
                store.staleness_bound = bound
            store._overflow_staleness = overflow
            store.mlkv_stats.overflow_entries = len(overflow)
        return store

    # ------------------------------------------------------------------
    def _run_stall_handler(self, key: int) -> None:
        start = self.clock.now
        handler = self._stall_handler
        progressed = handler(key) if handler is not None else False
        self.mlkv_stats.stall_seconds += self.clock.now - start
        if not progressed:
            raise StalenessViolation(
                f"Get({key}) blocked at bound {self.staleness_bound} "
                "and no stall handler made progress"
            )

    def _charge_clock_overhead(self) -> None:
        self._charge_cpu()
        self.clock.advance(CLOCK_OVERHEAD_SECONDS, component="cpu")
