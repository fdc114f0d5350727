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
* ``multi_get`` / ``multi_put`` (and ``get_rows`` / ``put_rows``, the same
  core behind arrays) — resolve the whole batch through the index at once
  and serve the *plain* keys as array operations: a Get of
  a record of the batch's width, gathered from the page arena or fetched
  from the file with one positional read; a Put in place in the mutable
  region, or appended (read-copy-update, a cold or a fresh key) with the
  other appends that fit the open log page.  Every other key takes the
  per-key methods above, in batch order.

A small per-operation CPU cost is charged to the simulated clock; this is
the "index traversal overhead" that makes MLKV-backed training a few
percent slower than the specialized in-memory frameworks in Figure 6.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from repro.device.clock import SimClock
from repro.device.ssd import SSDModel
from repro.errors import CheckpointError, StorageError, checkpoint_fields
from repro.errors import load_checkpoint_json, write_checkpoint_json
from repro.kv.api import CheckpointManager, KVStore, StoreStats
from repro.kv.api import check_rows, fill_rows, piece_values, row_values
from repro.kv.faster.hashindex import HashIndex
from repro.kv.faster.hybridlog import TOMBSTONE_LEN, HybridLog
from repro.kv.faster.record import (
    FIRST_GENERATION,
    HEADER_DTYPE,
    RECORD_HEADER_BYTES,
    next_generation,
    pack_word,
    released_words,
    replaced_words,
    unpack_word,
    word_flags,
    word_staleness,
)
from repro.obs.trace import span as obs_span

#: CPU cost of one store operation (hash probe + log access bookkeeping).
DEFAULT_OP_CPU_SECONDS = 0.9e-6

#: Fewest keys a batched operation serves as arrays.  Measured on the
#: 2-vCPU benchmark host (128-byte values, 25k keys behind a 1 MiB
#: buffer; array path and per-key loop alternated in one loop): a batched
#: read whose records are all on disk costs ~35 us plus ~1.3 us a key as
#: arrays (index walk, one positional read a record, result assembly),
#: key by key ~6 us a key, so the two cross near 10 keys; resident
#: snapshot reads cross near 20, admitted Gets near 30 and Puts, whose
#: plan and block append cost ~300 us a batch, near 60.  The threshold
#: sits between the reads' crossings, where a serving sub-call lands
#: (~18 keys, on disk): either side of it a read pays at most ~20% more
#: than the cheaper path would, and past it the array path's cost grows
#: slowly where the loop's keeps climbing.  Admitted Gets and Puts come
#: in training batches of thousands of keys.
MIN_ARRAY_BATCH = 16

#: A batched operation hands each key that is not plain to the per-key
#: method and picks the array path up again behind it, at the price of
#: re-slicing (a Get) or re-planning (a Put) the rest of the batch.  Once
#: more than one key in this many has gone that way, the rest of the batch
#: takes the per-key loop.  The append that opens a log page is per-key by
#: design, one in a page's worth of records, and is not counted.  Measured
#: on 256-key bounded Gets with absent keys mixed in, the array path stays
#: ahead of the loop up to about one key in four (2x ahead at one in
#: sixteen); a Put's re-plan costs more than a Get's re-slice, so the
#: share is kept where a Put's plan still pays for itself.
FALLBACK_SHARE = 16

#: A run of puts is planned over at most this many keys ahead, so that a
#: long batch cut into many runs (small pages) is planned in linear time.
_PLAN_KEYS = 1024

_META_FILE = "faster.meta.json"
_INDEX_FILE = "faster.index.bin"
_LOG_FILE = "faster.log"


class PutProtocol(NamedTuple):
    """What one kind of Put does, for :meth:`FasterKV._put_batch`.

    ``put_one(key, value)`` is the per-key put.  ``words(words)`` maps the
    latch words of resident records to ``(updated, superseded)``: the word
    a put leaves on the record it wrote — in place, or the new copy of a
    read-copy-update — and the word it leaves on the old copy behind such
    an append.  ``fresh_words(keys)`` gives the words of the records
    appended for keys without a resident copy (on disk, or absent).
    """

    put_one: Callable[[int, bytes], object]
    words: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    fresh_words: Callable[[list], np.ndarray]


def _upsert_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`FasterKV._upsert` on arrays: the next generation on the record
    written, the same word with the replaced bit on a copy left behind."""
    updated = released_words(words, word_staleness(words))
    return updated, replaced_words(updated)


def _upsert_fresh_words(keys: list) -> np.ndarray:
    word = pack_word(False, False, next_generation(FIRST_GENERATION), 0)
    return np.full(len(keys), word, dtype=np.uint64)


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
        """Batched get: amortized CPU per batch.

        Only the fixed per-op overhead amortizes.  Disk-resident records
        still pay one blocking random read each — a synchronous Get API
        cannot hide data stalls (the paper's Figure 2 premise); moving
        cold records at sequential cost is exclusively the job of
        look-ahead staging (:meth:`repro.core.mlkv.MLKV.lookahead`).
        """
        return piece_values(self._get_many(self._normalize_keys(keys)))

    def get_rows(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`multi_get` with the values copied into ``out`` run by run."""
        check_rows(keys, out)
        return fill_rows(keys, out, self._get_many(keys))

    def _get_many(self, keys) -> list:
        """A batched Get of ``keys`` — the list of :meth:`multi_get` or the
        array of :meth:`get_rows` — as pieces (:func:`~repro.kv.api.piece_values`).

        The index resolves the whole batch at once.  Records of the
        batch's width are *plain*: the resident ones are copied out of the
        page arena with a single gather, the cold ones fetched with one
        positional read each and their device charges booked together
        (:meth:`~repro.device.ssd.SSDModel.random_read_many`: the same
        charges, in the same order, as one ``get`` per key).  Absent and
        odd-width keys, and a cold record whose header is not what the
        index promised, are read one by one at their place in the batch —
        a read changes nothing another read depends on, but the simulated
        clock sees cold reads in order.
        """
        with obs_span("kv.multi_get", clock=self.clock, engine="faster", keys=len(keys)):
            self._charge_batch_cpu(len(keys))
            self._stats.gets += len(keys)
            key_array = self._key_array(keys)
            if key_array is None:
                keys = self._normalize_keys(keys)
                return [self._read_at(key, self.index.find(key)) for key in keys]
            addresses, rows, resident, cold, _, _ = self._read_plain(key_array)
            hits = int(np.count_nonzero(resident))
            self._stats.hits += hits
            record_len = RECORD_HEADER_BYTES + rows.shape[1]
            served = resident | cold
            if served.all():
                self._charge_cold_reads(record_len, len(served) - hits)
                return [rows]
            others = np.flatnonzero(~served)
            cold = np.flatnonzero(cold)
            pieces: list = []
            charged = first = 0
            for position, address in zip(others.tolist(), addresses[others].tolist()):
                before = int(np.searchsorted(cold, position))
                self._charge_cold_reads(record_len, before - charged)
                charged = before
                key, at = int(key_array[position]), address if address >= 0 else None
                pieces += (rows[first:position], self._read_at(key, at))
                first = position + 1
            self._charge_cold_reads(record_len, len(cold) - charged)
            return pieces + [rows[first:]]

    def multi_put(self, keys, values) -> None:
        """Batched put: amortized CPU per batch."""
        self._check_writable()
        self._put_many(*self._normalize_pairs(keys, values))

    def put_rows(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """:meth:`multi_put` of the rows of a ``uint8`` matrix, as they are."""
        self._check_writable()
        check_rows(keys, rows)
        self._put_many(keys, rows)

    def _put_many(self, keys, values) -> None:
        """A batched Put of lists (:meth:`multi_put`) or arrays (:meth:`put_rows`)."""
        with obs_span("kv.multi_put", clock=self.clock, engine="faster", keys=len(keys)):
            self._charge_batch_cpu(len(keys))
            self._stats.puts += len(keys)
            self._put_batch(
                keys, values, PutProtocol(self._upsert, _upsert_words, _upsert_fresh_words)
            )

    # ------------------------------------------------------------------
    # batch resolution, shared with MLKV
    # ------------------------------------------------------------------
    @staticmethod
    def _key_array(keys) -> Optional[np.ndarray]:
        """``keys`` (a list, or an integer array) as a ``uint64`` array of
        its own, or ``None`` when some key cannot be one (negative, too
        large, not an int) or the batch is too short to pay for arrays
        (``MIN_ARRAY_BATCH``): it then goes through the per-key methods and
        their treatment of such a key."""
        if len(keys) < MIN_ARRAY_BATCH:
            return None
        if isinstance(keys, np.ndarray):
            return None if keys.min() < 0 else keys.astype(np.uint64)
        try:
            return np.array(keys, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            return None

    @staticmethod
    def _has_duplicates(key_array: np.ndarray) -> bool:
        """Whether a key repeats; a strictly ascending batch (what the
        embedding facade sends) is told apart without a sort."""
        if (key_array[1:] > key_array[:-1]).all():
            return False
        ordered = np.sort(key_array)
        return bool((ordered[1:] == ordered[:-1]).any())

    def _resident(
        self, addresses: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residency, arena offsets and record headers of a batch's index
        entries.

        ``in_memory`` marks the addresses at or above ``log.head_address``.
        Offsets and headers mean something only there; elsewhere they
        describe whatever sits at arena offset 0 — or nothing, zeros, when
        no record of the batch is resident and nothing is gathered — so
        that every batch position has a row and callers mask by address.
        They go stale with the next append that evicts a page: whoever
        holds them across one compares addresses with the head again.
        """
        in_memory = addresses >= self.log.head_address
        if not in_memory.any():
            count = len(addresses)
            offsets, headers = np.zeros(count, dtype=np.int64), np.zeros(count, HEADER_DTYPE)
            return in_memory, offsets, headers
        offsets = self.log.arena_offsets(addresses)
        offsets[~in_memory] = 0
        return in_memory, offsets, self.log.read_headers(offsets)

    def _read_plain(
        self, key_array: np.ndarray, earlier: Optional[tuple] = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Resolve a batch of reads and fetch its plain records.

        Returns ``(addresses, rows, resident, cold, offsets, words)``.
        The batch's width is that of its first resident record (of its
        first cold one when nothing is resident).  ``resident`` marks the
        keys whose record is in memory, ``cold`` those whose record was
        fetched from the file; both only where the record's header names
        the key and the batch's width.  ``rows`` holds those records'
        values, one ``uint8`` row per batch position (rows of other
        positions hold nothing of use); ``offsets`` and ``words`` are the
        arena offsets and latch words of resident records.  ``earlier`` is
        the ``(addresses, rows, cold)`` an earlier call returned for the
        same keys: a record below the head never changes, so one it
        fetched is read again only if the index has moved on from it.
        Nothing is charged or counted: the caller books hits, misses and
        the cold reads' device time for the records it goes on to serve.

        The work follows what the batch holds: a batch with nothing
        resident gathers nothing from the arena, and one whose every
        record is on disk is served from the fetched matrix as it stands.
        """
        log = self.log
        count = len(key_array)
        addresses = self.index.find_many(key_array)
        in_memory, offsets, headers = self._resident(addresses)
        cold = np.zeros(count, dtype=bool)
        if in_memory.any():
            on_disk = np.flatnonzero((addresses >= 0) & ~in_memory)
            width = log.batch_width(int(headers["value_len"][in_memory.argmax()]))
            resident = in_memory & (headers["value_len"] == width) & (headers["key"] == key_array)
            if resident.all():
                rows = log.read_rows(offsets, width)
            else:
                rows = np.empty((count, width), dtype=np.uint8)
                rows[resident] = log.read_rows(offsets[resident], width)
        else:
            on_disk = np.flatnonzero(addresses >= 0)
            width = log.disk_value_len(int(addresses[on_disk[0]])) if len(on_disk) else 0
            resident = in_memory
            rows = np.empty((count, width), dtype=np.uint8)
        if earlier is not None and earlier[1].shape[1] == width:
            fetched_at, fetched_rows, fetched = earlier
            known = on_disk[fetched[on_disk] & (fetched_at[on_disk] == addresses[on_disk])]
            cold[known] = True
            rows[known] = fetched_rows[known]
            on_disk = on_disk[~cold[on_disk]]
        if len(on_disk):
            whole = len(on_disk) == count  # every position, in order: no gathers, no scatters
            at, expected = (addresses, key_array) if whole else (addresses[on_disk], key_array[on_disk])
            disk_headers, disk_rows, complete = log.read_disk_records(at, width)
            matching = complete & (disk_headers["value_len"] == width) & (disk_headers["key"] == expected)
            if whole:
                return addresses, disk_rows, resident, matching, offsets, headers["word"]
            cold[on_disk[matching]] = True
            rows[on_disk] = disk_rows
        return addresses, rows, resident, cold, offsets, headers["word"]

    def _charge_cold_reads(self, record_len: int, count: int) -> None:
        """Book ``count`` cold reads of one batch: misses and device time."""
        if count:
            self._stats.misses += count
            self.ssd.random_read_many(record_len, count, blocking=True)

    def _put_batch(self, keys, values, protocol: "PutProtocol") -> None:
        """Apply a batch of puts in order (CPU pre-charged).

        Distinct keys with values of one width — a matrix's rows, or a
        list's values laid out as one — go through :meth:`_put_runs` for as
        long as that pays; ``protocol.put_one`` (the per-key put) takes the
        rest of the batch, or all of it.
        """
        done = 0
        arrays = isinstance(values, np.ndarray)
        key_array = self._key_array(keys) if arrays or len(set(map(len, values))) == 1 else None
        if key_array is not None and not self._has_duplicates(key_array):
            rows = values if arrays else np.frombuffer(b"".join(values), dtype=np.uint8)
            done = self._put_runs(key_array, rows.reshape(len(keys), len(values[0])), protocol)
        if arrays and done < len(keys):
            keys, values, done = keys[done:].tolist(), row_values(values[done:]), 0
        for position in range(done, len(keys)):
            protocol.put_one(keys[position], values[position])

    def _put_runs(self, key_array: np.ndarray, rows: np.ndarray, protocol: "PutProtocol") -> int:
        """Put a prefix of the batch, plain keys as arrays; returns its length.

        A key is *plain* when its put is one of two things.  *In place*:
        the newest record is in the mutable region, already holds
        ``width`` bytes and is neither locked nor replaced; value and
        released latch word are overwritten.  *Appended*: the newest
        record is below the read-only boundary or of another width
        (read-copy-update: the new copy continues the old one's word, the
        old one is marked replaced), on disk, or absent; the new copy goes
        to the tail and the index entry to the new copy.  A run of plain
        keys is a handful of scatters and one :meth:`HybridLog.append_many`.

        The batch is resolved once — its keys are distinct, so no put
        touches what another resolved — but a run is planned against the
        log as it stands when the run starts, and ends where that plan
        stops holding:

        * The append that fills or opens a log page evicts the head page,
          as it stands, and turns resident old copies into disk copies.
          A run holds only the appends the open page has room for; the
          next one goes to ``put_one`` and the rest is planned afresh.
        * A locked or replaced record goes to ``put_one``.

        The read-only boundary follows the tail, append by append, so a
        record just above it is in place or appended depending on how
        many appends come before its turn — which depends on the records
        before it in the same way.  :meth:`_plan_run` settles that by
        iteration.  Within a run no page is flushed, so every in-place
        write of the batch lands before a later append can flush its
        page.  Nothing but the key's own put reads its index entry, so
        the entries of keys the index already held are swung to the new
        copies together, when the batch (or this method's part in it) is
        over, at the slots the resolution found them in (probed again only
        if an insert rebuilt the table in between); keys new to the index
        go in at their turn, in batch order
        (:meth:`HashIndex.insert_absent_many`) — where a key lands among
        colliding ones depends on who came first.
        Gives the rest of the batch up once too many keys have taken
        ``put_one`` (``FALLBACK_SHARE``; page-opening appends aside).
        """
        log = self.log
        count, width = rows.shape
        record_len = RECORD_HEADER_BYTES + width
        index = self.index
        slots, addresses = index.locate_many(key_array)
        rebuilds = index.rebuilds
        _, offsets, headers = self._resident(addresses)
        words = headers["word"]
        same_width = headers["value_len"] == width
        unflagged = word_flags(words) == 0
        updated, superseded = protocol.words(words)
        moved = np.full(count, -1, dtype=np.int64)  # new copies of keys the index holds
        fallbacks_left = count // FALLBACK_SHARE
        cursor = 0
        try:
            while cursor < count:
                ahead = slice(cursor, cursor + _PLAN_KEYS)
                resident = addresses[ahead] >= log.head_address
                in_place, appended, page_full = self._plan_run(
                    addresses[ahead], resident, unflagged[ahead], same_width[ahead], record_len
                )
                blocked = ~(in_place | appended) | page_full
                length = int(blocked.argmax()) if blocked.any() else len(blocked)
                chosen = np.flatnonzero(in_place[:length]) + cursor
                if len(chosen):
                    log.write_words(offsets[chosen], updated[chosen])
                    log.write_values(offsets[chosen], rows[chosen])
                chosen = np.flatnonzero(appended[:length]) + cursor
                if len(chosen):
                    new_words = updated[chosen]
                    fresh = ~resident[chosen - cursor]
                    if fresh.any():
                        new_words[fresh] = protocol.fresh_words(key_array[chosen[fresh]].tolist())
                    new_addresses = log.append_many(key_array[chosen], rows[chosen], new_words)
                    absent = addresses[chosen] < 0
                    moved[chosen] = np.where(absent, -1, new_addresses)
                    index.insert_absent_many(key_array[chosen[absent]], new_addresses[absent])
                    old = chosen[~fresh]
                    log.write_words(offsets[old], superseded[old])
                cursor += length
                if length == len(blocked):
                    continue  # planned this far and no further
                if not page_full[length]:
                    if not fallbacks_left:
                        return cursor
                    fallbacks_left -= 1
                protocol.put_one(int(key_array[cursor]), rows[cursor].tobytes())
                cursor += 1
            return count
        finally:
            chosen = np.flatnonzero(moved >= 0)
            index.swing_many(key_array[chosen], moved[chosen], slots[chosen], rebuilds)

    def _plan_run(
        self,
        addresses: np.ndarray,
        resident: np.ndarray,
        unflagged: np.ndarray,
        same_width: np.ndarray,
        record_len: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Which of the next puts go in place, which are appended, and
        which appends the open page has no room left for.

        The arrays describe the keys ahead, in batch order, against the
        log as it stands; a key in neither of the first two masks is
        locked or replaced.  A record in the mutable region is updated in
        place unless the read-only boundary has passed it by its turn,
        and the boundary is ``mutable_bytes`` behind the tail, which every
        append before that turn has moved.  Start from the keys appended
        wherever the boundary is (no resident copy, another width, below
        the boundary now), count the appends before each key, add the
        records the boundary passes on that count, and repeat until none
        is added: each round can only add appends, and the appends before
        the first key still undecided are by then exact.

        A run with no key certain to append appends nothing: the log keeps
        ``read_only_address >= tail_address - mutable_bytes``
        (:meth:`HybridLog._advance_regions`, and ``reset_resident`` on a
        restore), so a record in the mutable region has a ``boundary`` of
        at least 0: only an append before it could move the read-only
        boundary past it.
        """
        log = self.log
        free = resident & unflagged
        mutable = free & same_width & (addresses >= log.read_only_address)
        certain = ~resident | (free & ~mutable)
        if not certain.any():
            none = np.zeros(len(addresses), dtype=bool)
            return mutable, none, none
        appended = certain
        if mutable.any():
            boundary = addresses + (log.mutable_bytes - log.tail_address)
            while True:
                before = np.cumsum(appended) - appended
                passed = mutable & (boundary < before * record_len)
                if not (passed & ~appended).any():
                    break
                appended = certain | passed
        page_full = appended & (np.cumsum(appended) > log.append_room(record_len))
        return mutable & ~appended, appended, page_full

    def rmw(self, key: int, update: Callable[[Optional[bytes]], bytes]) -> bytes:
        """Read-modify-write one record through ``update``."""
        self._check_writable()
        self._charge_cpu()
        self._stats.gets += 1
        self._stats.puts += 1
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
        address = self.index.find(key)
        if address is None:
            return False
        word = pack_word(False, False, FIRST_GENERATION, 0)
        self.log.append_tombstone(key, word)
        self.index.remove(key)
        return True

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """All live records, in hash-index order."""
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
        write_checkpoint_json(os.path.join(self.directory, _META_FILE), meta)

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
        meta = load_checkpoint_json(meta_path)
        with checkpoint_fields(meta_path):
            page_bytes, tail_address = int(meta["page_bytes"]), int(meta["tail_address"])
            if page_bytes <= RECORD_HEADER_BYTES or tail_address < 0:
                raise ValueError(f"page_bytes {page_bytes}, tail_address {tail_address}")
        store_kwargs.pop("page_bytes", None)
        store = cls(directory, ssd=ssd, page_bytes=page_bytes, **store_kwargs)
        # After recovery the whole log body lives on disk; reads fault in.
        store.log.reset_resident(tail_address)
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
