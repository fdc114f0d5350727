"""Append-only page file with a page-id indirection table.

Pages are variable-length serialized nodes.  Writing a page appends a new
version and repoints the page table (copy-on-write); the table itself is
persisted at checkpoint.  Space from superseded versions is reclaimed by
``compact`` once garbage exceeds half the file, standing in for
WiredTiger's block manager.
"""

from __future__ import annotations

import os
import struct

from repro.device.ssd import SSDModel
from repro.errors import StorageError, checkpoint_fields
from repro.errors import load_checkpoint_json, write_checkpoint_json

_LEN = struct.Struct("<I")


class PageStore:
    """Maps page ids to (offset, length) extents in an append-only file."""

    def __init__(self, path: str, ssd: SSDModel) -> None:
        self.path = path
        self.ssd = ssd
        if not os.path.exists(path):
            with open(path, "wb"):
                pass
        self._file = open(path, "r+b")
        self._table: dict[int, tuple[int, int]] = {}
        self._next_page_id = 0
        self._end_offset = 0
        self._live_bytes = 0

    def allocate(self) -> int:
        """Reserve and return the next page id (no bytes written yet)."""
        page_id = self._next_page_id
        self._next_page_id += 1
        return page_id

    def write(self, page_id: int, data: bytes, blocking: bool = False) -> None:
        """Append a new version of ``page_id`` (copy-on-write)."""
        old = self._table.get(page_id)
        if old is not None:
            self._live_bytes -= _LEN.size + old[1]
        offset = self._end_offset
        self._file.seek(offset)
        self._file.write(_LEN.pack(len(data)))
        self._file.write(data)
        self._end_offset = offset + _LEN.size + len(data)
        self._table[page_id] = (offset, len(data))
        self._live_bytes += _LEN.size + len(data)
        self.ssd.sequential_write(_LEN.size + len(data), blocking=blocking)

    def read(self, page_id: int, blocking: bool = True) -> bytes:
        """Return a page's current bytes, charging the device for the read."""
        extent = self._table.get(page_id)
        if extent is None:
            raise StorageError(f"page {page_id} not on disk")
        offset, length = extent
        self._file.flush()
        self._file.seek(offset)
        header = self._file.read(_LEN.size)
        (stored_len,) = _LEN.unpack(header)
        if stored_len != length:
            raise StorageError(f"page {page_id} length mismatch")
        data = self._file.read(length)
        self.ssd.random_read(_LEN.size + length, blocking=blocking)
        return data

    def garbage_ratio(self) -> float:
        """Fraction of file bytes held by superseded page versions."""
        if self._end_offset == 0:
            return 0.0
        return 1.0 - self._live_bytes / self._end_offset

    def compact(self) -> None:
        """Rewrite live pages contiguously, dropping superseded versions."""
        live = {}
        for page_id in list(self._table):
            live[page_id] = self.read(page_id, blocking=False)
        self._file.close()
        self._file = open(self.path, "w+b")
        self._table.clear()
        self._end_offset = 0
        self._live_bytes = 0
        for page_id, data in live.items():
            self.write(page_id, data, blocking=False)

    def checkpoint(self, meta_path: str, root_page: int) -> None:
        """Durably sync the page file, then write the meta header naming
        ``root_page``."""
        self._file.flush()
        os.fsync(self._file.fileno())
        meta = {
            "root_page": root_page,
            "next_page_id": self._next_page_id,
            "end_offset": self._end_offset,
            "live_bytes": self._live_bytes,
            "table": {str(pid): list(extent) for pid, extent in self._table.items()},
        }
        write_checkpoint_json(meta_path, meta)
        self.ssd.sequential_write(os.path.getsize(meta_path), blocking=True)

    @classmethod
    def recover(cls, path: str, meta_path: str, ssd: SSDModel) -> tuple["PageStore", int]:
        """Re-open a checkpointed page store; returns ``(store, root_page)``."""
        meta = load_checkpoint_json(meta_path)
        with checkpoint_fields(meta_path):
            table = {int(pid): tuple(extent) for pid, extent in meta["table"].items()}
            next_page_id, end_offset = meta["next_page_id"], meta["end_offset"]
            live_bytes, root_page = meta["live_bytes"], meta["root_page"]
        store = cls(path, ssd)
        store._table = table
        store._next_page_id, store._end_offset = next_page_id, end_offset
        store._live_bytes = live_bytes
        store.ssd.sequential_read(os.path.getsize(meta_path), blocking=True)
        return store, root_page

    def close(self) -> None:
        """Flush and close the backing file."""
        self._file.flush()
        self._file.close()
