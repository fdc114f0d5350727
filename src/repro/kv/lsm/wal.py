"""Write-ahead log for the LSM store.

Every mutation is appended before it reaches the memtable, so an
un-flushed memtable can be replayed after a crash.  Record framing is the
shared record encoding with a one-byte op tag (PUT/DELETE).  The log is
truncated whenever the memtable it covers has been flushed to an SSTable.
"""

from __future__ import annotations

import logging
import os
import struct
from typing import Iterator, Optional

from repro.device.ssd import SSDModel
from repro.kv.common.serialization import (
    RECORD_HEADER,
    decode_record,
    encode_record,
    record_size,
)

_OP_PUT = 0x01
_OP_DELETE = 0x02
_TAG = struct.Struct("<B")

#: Size of a record's [u64 key][u32 value_len] header, and the struct to
#: peek the claimed value length (mirrors the shared record encoding).
_REC_HEADER_SIZE = record_size(0)
_VALUE_LEN = struct.Struct("<I")

#: Replay reads the log in chunks of this size instead of slurping it.
REPLAY_CHUNK_BYTES = 1 << 20

logger = logging.getLogger(__name__)


class WriteAheadLog:
    """Append-only redo log with group-commit style cost accounting."""

    def __init__(self, path: str, ssd: SSDModel, sync_every: int = 64) -> None:
        self.path = path
        self.ssd = ssd
        self.sync_every = max(1, sync_every)
        self._file = open(path, "ab")
        self._pending = 0
        self._pending_bytes = 0

    def append_put(self, key: int, value: bytes) -> None:
        """Log one upsert record."""
        self._append(_OP_PUT, key, value)

    def append_delete(self, key: int) -> None:
        """Log one delete record."""
        self._append(_OP_DELETE, key, b"")

    def append_put_batch(self, items) -> None:
        """Append many puts as one group-commit unit.

        Per-record framing is identical to :meth:`append_put` (replay
        needs no changes), but the whole batch counts as a single pending
        commit, so one sync — one sequential write — covers all of it.
        The payload is rendered into one preallocated buffer with
        ``pack_into`` — O(1) allocations per batch, not O(n).
        """
        items = list(items)
        if not items:
            return
        size = sum(
            _TAG.size + _REC_HEADER_SIZE + len(value) for _, value in items
        )
        payload = bytearray(size)
        pack_header = RECORD_HEADER.pack_into
        cursor = 0
        for key, value in items:
            if key < 0:
                raise ValueError("keys must be non-negative integers")
            payload[cursor] = _OP_PUT
            length = len(value)
            pack_header(payload, cursor + _TAG.size, key, length)
            cursor += _TAG.size + _REC_HEADER_SIZE
            payload[cursor : cursor + length] = value
            cursor += length
        self._file.write(payload)
        self._pending += 1
        self._pending_bytes += len(payload)
        if self._pending >= self.sync_every:
            self.sync()

    def _append(self, op: int, key: int, value: bytes) -> None:
        payload = _TAG.pack(op) + encode_record(key, value)
        self._file.write(payload)
        self._pending += 1
        self._pending_bytes += len(payload)
        if self._pending >= self.sync_every:
            self.sync()

    def sync(self) -> None:
        """Flush buffered appends; charged as one sequential write."""
        if self._pending == 0:
            return
        self._file.flush()
        self.ssd.sequential_write(self._pending_bytes, blocking=False)
        self._pending = 0
        self._pending_bytes = 0

    def truncate(self) -> None:
        """Discard the log after its memtable has been flushed."""
        self.sync()
        self._file.close()
        self._file = open(self.path, "wb")

    def replay(
        self, chunk_bytes: int = REPLAY_CHUNK_BYTES
    ) -> Iterator[tuple[int, Optional[bytes]]]:
        """Yield ``(key, value_or_None)`` mutations in append order.

        The log streams through a bounded buffer (``chunk_bytes`` at a
        time) rather than being slurped whole, so replay memory does not
        scale with log size.  A torn final record — exactly what a crash
        mid-append leaves behind — is truncated away with a warning
        instead of failing recovery: everything before the tear is
        replayed, the partial tail is discarded, and the file is trimmed
        so subsequent appends start at a clean record boundary.  A record
        header whose claimed length exceeds the bytes remaining in the
        file is recognized as torn immediately (without buffering the
        rest of the log), which also keeps a corrupted length field from
        defeating the memory bound.
        """
        self._file.flush()
        file_size = os.path.getsize(self.path)
        good_offset = 0  # file offset just past the last fully-decoded record
        buffer = b""
        with open(self.path, "rb") as f:
            eof = False
            while True:
                consumed = 0
                torn = False
                while consumed < len(buffer):
                    header_end = consumed + _TAG.size + _REC_HEADER_SIZE
                    if header_end <= len(buffer):
                        (value_len,) = _VALUE_LEN.unpack_from(
                            buffer, header_end - _VALUE_LEN.size
                        )
                        needed = _TAG.size + _REC_HEADER_SIZE + value_len
                        if good_offset + consumed + needed > file_size:
                            # The claimed record cannot fit in what is left
                            # of the file: framing is lost from here on.
                            torn = True
                            break
                    try:
                        (op,) = _TAG.unpack_from(buffer, consumed)
                        key, value, end = decode_record(buffer, consumed + _TAG.size)
                    except (struct.error, ValueError):
                        # Not enough bytes buffered for a whole record: the
                        # record straddles the chunk boundary (read more)
                        # or the log ends mid-header (torn tail at EOF).
                        break
                    consumed = end
                    yield key, (value if op == _OP_PUT else None)
                good_offset += consumed
                buffer = buffer[consumed:]
                if torn or (eof and buffer):
                    logger.warning(
                        "WAL %s has a torn record at offset %d "
                        "(%d bytes discarded); truncating to the last "
                        "complete record",
                        self.path,
                        good_offset,
                        file_size - good_offset,
                    )
                    self._truncate_to(good_offset)
                    return
                if eof:
                    return
                # Read more whether the buffer drained or a record spans
                # the chunk boundary (records may exceed one chunk).
                chunk = f.read(chunk_bytes)
                if not chunk:
                    eof = True
                    continue
                self.ssd.sequential_read(len(chunk), blocking=True)
                buffer += chunk

    def _truncate_to(self, offset: int) -> None:
        """Trim the log to ``offset`` so appends resume on a clean boundary."""
        self._file.flush()
        with open(self.path, "r+b") as f:
            f.truncate(offset)

    def close(self) -> None:
        """Sync and close the log file."""
        self.sync()
        self._file.close()
