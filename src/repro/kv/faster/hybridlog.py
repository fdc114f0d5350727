"""The hybrid log: one logical address space spanning memory and disk.

Addresses are byte offsets into an append-only log divided into fixed-size
pages.  Three boundaries partition the space (paper Section II-B of
FASTER, used by MLKV Section III-C)::

    0 ............. head ............. read_only ............. tail
    |  on disk      |  in-memory, read-only |  in-memory, mutable |

* Appends go at ``tail``; a record never straddles a page boundary (the
  remainder of a page is zero-padded, detected by generation 0).
* Records at addresses ≥ ``read_only`` may be updated **in place**;
  records below it are updated by read-copy-update (append a new copy).
* When the in-memory window exceeds its budget, the lowest page is
  flushed to the backing file (a background sequential write — FASTER
  flushes asynchronously) and evicted, advancing ``head``.
* Reads below ``head`` hit the SSD (a blocking random read — this is the
  data-stall path the paper's figures revolve around).

The in-memory window is one ``uint8`` arena of ``memory_pages`` page
frames; page ``p`` lives in frame ``p % memory_pages``, so a resident
address maps to an arena offset by arithmetic alone and a batch of
same-width records is a set of items of one overlapping ``np.void``
view of the arena, each record one item (:meth:`HybridLog.read_headers`,
:meth:`HybridLog.read_rows`, :meth:`HybridLog.write_values`).  A frame
is reused only by the page ``memory_pages`` above its current one, which
is opened only after the current one has been written to the file.  The
arena is reserved with ``np.zeros`` — frames never touched cost no
resident memory — and a frame is zeroed when a page is opened in it.

Look-ahead staging (:meth:`repro.core.mlkv.MLKV.lookahead`) copies
disk-resident records back into the mutable region: it charges one
overlapped sequential scan for the batch (:meth:`charge_prefetch_pages`),
fetches the records (:meth:`read_disk_records`) and re-appends them at the
tail (:meth:`append_many`) — which is precisely how MLKV hides disk
accesses beyond the staleness bound.

Everything below ``head`` is read from the file by position: one call
per record for a batch (:meth:`read_disk_records`), two (header, then
value) for a single record whose width is not known beforehand
(:meth:`read_disk_record`).
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro._arrays import sorted_unique
from repro.device.ssd import PAGE_BYTES, SSDModel
from repro.kv.faster.record import (
    HEADER_DTYPE,
    RECORD_HEADER_BYTES,
    RecordWord,
    decode_record_header,
    encode_record_header_into,
)
from repro.errors import StorageError

#: value_len sentinel marking a tombstone record.
TOMBSTONE_LEN = 0xFFFFFFFF


class HybridLog:
    """Append-only log with an in-memory tail window and a file-backed body."""

    def __init__(
        self,
        path: str,
        ssd: SSDModel,
        memory_budget_bytes: int = 1 << 22,
        page_bytes: int = 1 << 15,
        mutable_fraction: float = 0.9,
    ) -> None:
        if page_bytes <= RECORD_HEADER_BYTES:
            raise ValueError("page_bytes too small to hold a record header")
        if memory_budget_bytes < page_bytes:
            raise ValueError("memory budget must hold at least one page")
        if not 0.0 < mutable_fraction <= 1.0:
            raise ValueError("mutable_fraction must be in (0, 1]")
        self.path = path
        self.ssd = ssd
        self.page_bytes = page_bytes
        self.memory_pages = max(1, memory_budget_bytes // page_bytes)
        self.mutable_bytes = max(page_bytes, int(memory_budget_bytes * mutable_fraction))

        self.tail_address = 0
        self.head_address = 0
        self.read_only_address = 0

        # Page p sits in frame p % memory_pages, so a resident address
        # sits at arena offset ``address % _arena_bytes``.
        self._arena_bytes = self.memory_pages * page_bytes
        self._arena = np.zeros(self._arena_bytes, dtype=np.uint8)
        self._memory = memoryview(self._arena)  # scalar paths: plain ints in and out
        self._windows: dict[int, np.ndarray] = {}
        self._top_page = 0  # highest page opened in the arena
        if not os.path.exists(path):
            with open(path, "wb"):
                pass
        self._file = open(path, "r+b")
        self._unflushed = False  # pages written that positional reads cannot see yet
        self._closed = False

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def _page_no(self, address: int) -> int:
        return address // self.page_bytes

    def _page_offset(self, address: int) -> int:
        return address % self.page_bytes

    def _frame(self, page_no: int) -> np.ndarray:
        """The arena slice holding resident page ``page_no``."""
        start = page_no * self.page_bytes % self._arena_bytes
        return self._arena[start : start + self.page_bytes]

    def in_memory(self, address: int) -> bool:
        """Whether the address is at or above the in-memory head."""
        return address >= self.head_address

    def in_mutable(self, address: int) -> bool:
        """Whether the address is in the mutable (in-place-update) region."""
        return address >= self.read_only_address

    def mutable_records(self, record_len: int) -> int:
        """How many ``record_len``-byte records the mutable region is sure
        to hold: ``mutable_bytes`` of them, but no more than the resident
        pages below the tail page (a page opened at the tail evicts the
        head page whole), and a page takes whole records only
        (:meth:`_reserve`)."""
        if record_len > self.page_bytes:
            return 0
        span = min(self.mutable_bytes, (self.memory_pages - 1) * self.page_bytes)
        pages, rest = divmod(span, self.page_bytes)
        return pages * (self.page_bytes // record_len) + rest // record_len

    def memory_bytes_used(self) -> int:
        """Bytes held by the resident pages between head and tail."""
        head_page = self._page_no(self.head_address)
        tail_page = self._page_no(self.tail_address)
        return (tail_page - head_page + 1) * self.page_bytes

    # ------------------------------------------------------------------
    # append path
    # ------------------------------------------------------------------
    def append(self, key: int, value: bytes, word: int) -> int:
        """Append a record; returns its log address."""
        record_len = RECORD_HEADER_BYTES + len(value)
        address, offset = self._reserve(record_len)
        encode_record_header_into(self._memory, offset, word, key, len(value))
        if value:
            self._memory[offset + RECORD_HEADER_BYTES : offset + record_len] = value
        self._advance_regions()
        return address

    def append_tombstone(self, key: int, word: int) -> int:
        """Append a deletion marker for ``key``."""
        address, offset = self._reserve(RECORD_HEADER_BYTES)
        encode_record_header_into(self._memory, offset, word, key, TOMBSTONE_LEN)
        self._advance_regions()
        return address

    def append_room(self, record_len: int) -> int:
        """How many ``record_len``-byte records the open tail page takes
        before one of them would fill it to the last byte or need the next
        page — the appends that flush and evict (:meth:`_advance_regions`,
        :meth:`_open_page`)."""
        if self._page_no(self.tail_address) > self._top_page:
            return 0  # the tail sits at the start of a page not opened yet
        return (self.page_bytes - self._page_offset(self.tail_address) - 1) // record_len

    def append_many(self, keys: np.ndarray, rows: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Append one record per row of ``rows`` (``uint8``, one width), in
        order; returns their log addresses.

        Equals :meth:`append` called once per record.  The records that
        fit the open page (:meth:`append_room`) are laid down as one block
        — headers and values as two array stores, the region boundaries
        advanced once, to where the last of those appends would have left
        them.  A record that fills or opens a page takes :meth:`append`
        itself, so pages are flushed and evicted record by record as ever.
        """
        count, width = rows.shape
        record_len = RECORD_HEADER_BYTES + width
        addresses = np.empty(count, dtype=np.int64)
        done = 0
        while done < count:
            fit = min(self.append_room(record_len), count - done)
            if not fit:
                addresses[done] = self.append(
                    int(keys[done]), rows[done].tobytes(), int(words[done])
                )
                done += 1
                continue
            self._check_open()
            stop = done + fit
            start = self.tail_address % self._arena_bytes
            block = self._arena[start : start + fit * record_len].reshape(fit, record_len)
            headers = np.empty(fit, dtype=HEADER_DTYPE)
            headers["word"] = words[done:stop]
            headers["key"] = keys[done:stop]
            headers["value_len"] = width
            block[:, :RECORD_HEADER_BYTES] = headers.view(np.uint8).reshape(
                fit, RECORD_HEADER_BYTES
            )
            block[:, RECORD_HEADER_BYTES:] = rows[done:stop]
            addresses[done:stop] = self.tail_address + record_len * np.arange(fit)
            self.tail_address += fit * record_len
            self._advance_regions()
            done = stop
        return addresses

    def _reserve(self, record_len: int) -> tuple[int, int]:
        """Claim ``record_len`` bytes at the tail: ``(address, arena offset)``."""
        self._check_open()
        if record_len > self.page_bytes:
            raise StorageError(
                f"record of {record_len} bytes exceeds page size {self.page_bytes}"
            )
        remaining = self.page_bytes - self._page_offset(self.tail_address)
        if record_len > remaining:
            # Zero-pad the page remainder; padding decodes as generation 0.
            self.tail_address += remaining
        address = self.tail_address
        page_no = self._page_no(address)
        if page_no > self._top_page:
            self._open_page(page_no)
        self.tail_address += record_len
        return address, address % self._arena_bytes

    def _open_page(self, page_no: int) -> None:
        """Make ``page_no`` the top resident page, in a zeroed frame."""
        # The frame may still hold the page ``memory_pages`` below; that
        # page goes to the file before its bytes are overwritten.
        head_page = self._page_no(self.head_address)
        while page_no - head_page + 1 > self.memory_pages:
            self._flush_and_evict(head_page)
            head_page += 1
        self._frame(page_no)[:] = 0
        self._top_page = page_no

    def _advance_regions(self) -> None:
        new_read_only = max(0, self.tail_address - self.mutable_bytes)
        if new_read_only > self.read_only_address:
            self.read_only_address = new_read_only
        head_page = self._page_no(self.head_address)
        tail_page = self._page_no(self.tail_address)
        while (tail_page - head_page + 1) > self.memory_pages:
            self._flush_and_evict(head_page)
            head_page += 1
        if self.read_only_address < self.head_address:
            self.read_only_address = self.head_address

    def _flush_and_evict(self, page_no: int) -> None:
        if page_no <= self._top_page:
            # FASTER flushes closed pages asynchronously; the write cost is
            # hidden behind foreground work unless the device saturates.
            self._write_page(page_no, blocking=False)
        self.head_address = (page_no + 1) * self.page_bytes

    def _write_page(self, page_no: int, blocking: bool) -> None:
        """Copy resident page ``page_no`` to its place in the backing file."""
        self._file.seek(page_no * self.page_bytes)
        self._file.write(self._frame(page_no))
        self._unflushed = True
        self.ssd.sequential_write(self.page_bytes, blocking=blocking)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def read_record(self, address: int) -> tuple[int, int, Optional[bytes], bool]:
        """Read the record at ``address``.

        Returns ``(word, key, value, from_memory)``; ``value`` is ``None``
        for tombstones.  Disk reads charge a blocking random read sized to
        the whole record.
        """
        self._check_open()
        if address >= self.tail_address:
            raise StorageError(f"address {address} beyond tail {self.tail_address}")
        if self.in_memory(address):
            offset = address % self._arena_bytes
            word, key, value_len = decode_record_header(self._memory, offset)
            if value_len == TOMBSTONE_LEN:
                return word, key, None, True
            start = offset + RECORD_HEADER_BYTES
            return word, key, bytes(self._memory[start : start + value_len]), True
        return self._read_from_disk(address, blocking=True)

    def _read_from_disk(self, address: int, blocking: bool) -> tuple[int, int, Optional[bytes], bool]:
        word, key, value = self.read_disk_record(address)
        value_len = 0 if value is None else len(value)
        self.ssd.random_read(RECORD_HEADER_BYTES + value_len, blocking=blocking)
        return word, key, value, False

    def _read_fd(self) -> int:
        """The log file's descriptor, with every page written so far where
        a positional read sees it (the file object buffers writes)."""
        if self._unflushed:
            self._file.flush()
            self._unflushed = False
        return self._file.fileno()

    def _pread(self, address: int, nbytes: int) -> bytes:
        """``nbytes`` of the file at ``address``; fewer is a torn log."""
        data = os.pread(self._read_fd(), nbytes, address)
        if len(data) < nbytes:
            raise StorageError(f"log truncated at address {address}")
        return data

    def read_disk_record(self, address: int) -> tuple[int, int, Optional[bytes]]:
        """``(word, key, value)`` of the record at ``address`` in the file
        (``value`` is ``None`` for a tombstone); charges nothing."""
        word, key, value_len = decode_record_header(self._pread(address, RECORD_HEADER_BYTES))
        if value_len == TOMBSTONE_LEN:
            return word, key, None
        return word, key, self._pread(address + RECORD_HEADER_BYTES, value_len)

    def batch_width(self, value_len: int) -> int:
        """The value width a batched read assumes of its records, given the
        ``value_len`` of its first: 0 for a tombstone or a length no record
        of this log can have (a crossed index entry) — such a batch then
        matches nothing and every key is read, and judged, one by one."""
        return value_len if value_len <= self.page_bytes - RECORD_HEADER_BYTES else 0

    def disk_value_len(self, address: int) -> int:
        """:meth:`batch_width` of the record at ``address`` in the file; 0
        as well where the file ends inside the header, which is for the
        read of that record to report."""
        header = os.pread(self._read_fd(), RECORD_HEADER_BYTES, address)
        if len(header) < RECORD_HEADER_BYTES:
            return 0
        return self.batch_width(decode_record_header(header)[2])

    def read_disk_records(
        self, addresses: np.ndarray, width: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The records at ``addresses`` in the file, taken to hold ``width``
        value bytes each: ``(headers, rows, complete)``; charges nothing.

        One positional read per record, joined into one matrix (a torn
        record padded with zeros).  ``headers`` are ``HEADER_DTYPE`` rows,
        ``rows`` the ``width`` bytes behind each.  A row means something
        only where its header says ``width`` too; ``complete`` is
        ``False`` where the file ended inside the read.  Callers send
        every record they cannot vouch for through
        :meth:`read_disk_record`, which raises what is wrong with it.
        """
        record_len = RECORD_HEADER_BYTES + width
        fd = self._read_fd()
        chunks = [os.pread(fd, record_len, address) for address in addresses.tolist()]
        # No read returns more than it asks for: the sum is whole only
        # when every read is.
        if sum(map(len, chunks)) == record_len * len(chunks):
            complete = np.ones(len(chunks), dtype=bool)
        else:
            complete = np.fromiter(map(len, chunks), dtype=np.int64, count=len(chunks)) == record_len
            chunks = [chunk.ljust(record_len, b"\0") for chunk in chunks]
        records = np.frombuffer(bytearray().join(chunks), dtype=np.uint8)
        records = records.reshape(len(chunks), record_len)
        headers = records[:, :RECORD_HEADER_BYTES].view(HEADER_DTYPE).reshape(len(chunks))
        return headers, records[:, RECORD_HEADER_BYTES:], complete

    def record_word(self, address: int) -> RecordWord:
        """Atomic latch-word handle for an in-memory record."""
        if not self.in_memory(address):
            raise StorageError("record word only addressable for in-memory records")
        return RecordWord(self._memory, address % self._arena_bytes)

    def write_value_in_place(self, address: int, value: bytes) -> None:
        """Overwrite the value bytes of a mutable-region record (same length)."""
        if not self.in_mutable(address):
            raise StorageError("in-place update outside the mutable region")
        offset = address % self._arena_bytes
        _, _, value_len = decode_record_header(self._memory, offset)
        if value_len != len(value):
            raise StorageError("in-place update must preserve value length")
        start = offset + RECORD_HEADER_BYTES
        self._memory[start : start + value_len] = value

    # ------------------------------------------------------------------
    # batched access to resident records
    # ------------------------------------------------------------------
    def _window(self, width: int) -> np.ndarray:
        """View of the arena whose item ``i`` is ``arena[i : i + width]`` as
        one ``width``-byte ``np.void``: the records at a set of offsets are
        a fancy index into it, and each is copied as one item, not as
        ``width`` one-byte ones."""
        window = self._windows.get(width)
        if window is None:
            window = np.ndarray(
                shape=(self._arena_bytes - width + 1,),
                dtype=(np.void, width),
                buffer=self._arena,
                strides=(1,),
            )
            self._windows[width] = window
        return window

    def arena_offsets(self, addresses: np.ndarray) -> np.ndarray:
        """Arena offsets of an array of resident log addresses."""
        return addresses % self._arena_bytes

    def read_headers(self, offsets: np.ndarray) -> np.ndarray:
        """Headers of the records at ``offsets``, as ``HEADER_DTYPE`` rows."""
        return self._window(RECORD_HEADER_BYTES)[offsets].view(HEADER_DTYPE)

    def write_words(self, offsets: np.ndarray, words: np.ndarray) -> None:
        """Store one latch word per record at ``offsets``."""
        self._window(8)[offsets] = words.astype("<u8", copy=False).view("V8")

    def read_rows(self, offsets: np.ndarray, value_len: int) -> np.ndarray:
        """Values of records at ``offsets`` that all hold ``value_len``
        bytes, as the rows of a new ``uint8`` matrix."""
        if value_len == 0:
            return np.empty((len(offsets), 0), dtype=np.uint8)
        rows = self._window(value_len)[offsets + RECORD_HEADER_BYTES]
        return rows.view(np.uint8).reshape(len(offsets), value_len)

    def write_values(self, offsets: np.ndarray, values: np.ndarray) -> None:
        """Overwrite the values of records at ``offsets`` with the rows of
        ``values`` (``uint8``, one row per record, the records' own width).

        The in-place update of a batch: the caller has established that
        every record is in the mutable region and already this wide.
        """
        width = values.shape[1]
        if width:
            records = np.ascontiguousarray(values).view((np.void, width))
            self._window(width)[offsets + RECORD_HEADER_BYTES] = records.reshape(len(values))

    # ------------------------------------------------------------------
    # prefetch support
    # ------------------------------------------------------------------
    def prefetch_read(self, address: int, charge: bool = True) -> tuple[int, int, Optional[bytes]]:
        """Read a disk-resident record for prefetch staging.

        With ``charge=False`` the caller takes responsibility for device
        accounting — MLKV's lookahead batches many records into one
        page-granular sequential scan (:meth:`charge_prefetch_pages`), so
        the device serves them at bandwidth rather than per-I/O latency.
        """
        word, key, value = self.read_disk_record(address)
        if charge:
            value_len = 0 if value is None else len(value)
            self.ssd.sequential_read(RECORD_HEADER_BYTES + value_len, blocking=False)
        return word, key, value

    def charge_prefetch_pages(self, addresses) -> int:
        """Charge one overlapped sequential scan covering ``addresses``.

        The lookahead engine sorts its batch by log address and issues one
        bandwidth-bound scan over the needed 4 KiB blocks; each distinct
        block is paid once.  This is the whole economy of look-ahead
        staging versus per-record random reads through the Get API.
        Returns the number of distinct blocks charged.
        """
        blocks = sorted_unique(np.asarray(addresses, dtype=np.int64) // PAGE_BYTES).size
        if blocks:
            self.ssd.sequential_read(blocks * PAGE_BYTES, blocking=False)
        return blocks

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def flush_all(self, blocking: bool = True) -> None:
        """Write every in-memory page to the backing file (checkpoint path)."""
        self._check_open()
        for page_no in range(self._page_no(self.head_address), self._top_page + 1):
            self._write_page(page_no, blocking)
        os.fsync(self._read_fd())

    def reset_resident(self, tail_address: int) -> None:
        """Restart the in-memory window empty at ``tail_address`` (recovery).

        Everything below stays on disk and faults in on read; the tail is
        rounded up to a page boundary so appends start on a fresh page and
        the recovered bytes stay valid.
        """
        tail_address += -tail_address % self.page_bytes
        self.tail_address = self.head_address = self.read_only_address = tail_address
        self._open_page(self._page_no(tail_address))

    def scan_addresses(self):
        """Yield ``(address, word, key, value_len)`` for every record.

        Used by recovery to rebuild the hash index; padding (generation 0)
        skips to the next page boundary.
        """
        self.flush_all(blocking=False)
        address = 0
        with open(self.path, "rb") as f:
            while address < self.tail_address:
                remaining = self.page_bytes - self._page_offset(address)
                if remaining < RECORD_HEADER_BYTES:
                    address += remaining
                    continue
                f.seek(address)
                header = f.read(RECORD_HEADER_BYTES)
                if len(header) < RECORD_HEADER_BYTES:
                    return
                word, key, value_len = decode_record_header(header)
                generation = (word >> 32) & ((1 << 30) - 1)
                if generation == 0:
                    address += remaining
                    continue
                yield address, word, key, value_len
                if value_len == TOMBSTONE_LEN:
                    address += RECORD_HEADER_BYTES
                else:
                    address += RECORD_HEADER_BYTES + value_len

    def close(self) -> None:
        """Flush and close the log file."""
        if not self._closed:
            self._file.flush()
            self._file.close()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("log is closed")
