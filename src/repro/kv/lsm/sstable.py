"""Immutable sorted runs (SSTables).

File layout::

    [block 0][block 1]...[block n-1][meta sidecar: .meta]

Each block packs consecutive records (shared record encoding with a
tombstone length sentinel).  The sidecar holds the sparse index
(first key, offset, length per block), the bloom filter, and the key
range — everything a point lookup needs without touching the data file.
Point reads fetch exactly one block (one random I/O on a block-cache
miss), matching RocksDB's table format at the granularity that matters
for the cost model.
"""

from __future__ import annotations

import bisect
import os
import struct
from typing import Iterator, Optional

from repro.device.ssd import SSDModel
from repro.kv.common.bloom import BloomFilter
from repro.errors import StorageError, checkpoint_fields
from repro.errors import load_checkpoint_json, write_checkpoint_json

_ENTRY = struct.Struct("<QI")
#: value-length sentinel encoding a tombstone inside a block.
TOMBSTONE = 0xFFFFFFFF

DEFAULT_BLOCK_BYTES = 4096


class SSTable:
    """One immutable sorted run on disk."""

    def __init__(
        self,
        path: str,
        first_keys: list[int],
        block_offsets: list[int],
        block_lengths: list[int],
        bloom: BloomFilter,
        min_key: int,
        max_key: int,
        entry_count: int,
        data_bytes: int,
    ) -> None:
        self.path = path
        self.first_keys = first_keys
        self.block_offsets = block_offsets
        self.block_lengths = block_lengths
        self.bloom = bloom
        self.min_key = min_key
        self.max_key = max_key
        self.entry_count = entry_count
        self.data_bytes = data_bytes

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        path: str,
        items: Iterator[tuple[int, Optional[bytes]]],
        ssd: SSDModel,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        blocking_io: bool = False,
    ) -> Optional["SSTable"]:
        """Write sorted ``(key, value_or_None)`` items; returns the table.

        Returns ``None`` when ``items`` is empty.  The write is charged as
        a sequential transfer (flush/compaction writes happen off the
        training critical path, hence ``blocking_io=False`` by default).
        """
        first_keys: list[int] = []
        block_offsets: list[int] = []
        block_lengths: list[int] = []
        entries = 0
        min_key: Optional[int] = None
        max_key: Optional[int] = None
        keys_for_bloom: list[int] = []
        block = bytearray()
        block_first: Optional[int] = None
        offset = 0

        with open(path, "wb") as f:

            def _flush_block() -> None:
                nonlocal block, block_first, offset
                if not block:
                    return
                first_keys.append(block_first)
                block_offsets.append(offset)
                block_lengths.append(len(block))
                f.write(block)
                offset += len(block)
                block = bytearray()
                block_first = None

            for key, value in items:
                # Values may be any buffer (bytes or a memoryview from the
                # batch codec), so grow the block with += instead of
                # bytes-concatenating header and value.
                entry_len = (
                    _ENTRY.size if value is None else _ENTRY.size + len(value)
                )
                if block and len(block) + entry_len > block_bytes:
                    _flush_block()
                if block_first is None:
                    block_first = key
                if value is None:
                    block += _ENTRY.pack(key, TOMBSTONE)
                else:
                    block += _ENTRY.pack(key, len(value))
                    block += value
                entries += 1
                keys_for_bloom.append(key)
                min_key = key if min_key is None else min(min_key, key)
                max_key = key if max_key is None else max(max_key, key)
            _flush_block()

        if entries == 0:
            os.remove(path)
            return None

        bloom = BloomFilter(capacity=entries)
        for key in keys_for_bloom:
            bloom.add(key)
        ssd.sequential_write(offset, blocking=blocking_io)

        table = cls(
            path=path,
            first_keys=first_keys,
            block_offsets=block_offsets,
            block_lengths=block_lengths,
            bloom=bloom,
            min_key=min_key,
            max_key=max_key,
            entry_count=entries,
            data_bytes=offset,
        )
        table._write_sidecar()
        return table

    def _write_sidecar(self) -> None:
        meta = {
            "first_keys": self.first_keys,
            "block_offsets": self.block_offsets,
            "block_lengths": self.block_lengths,
            "min_key": self.min_key,
            "max_key": self.max_key,
            "entry_count": self.entry_count,
            "data_bytes": self.data_bytes,
            "bloom_bits": self.bloom.num_bits,
            "bloom_hashes": self.bloom.num_hashes,
            "bloom_hex": self.bloom.to_bytes().hex(),
        }
        write_checkpoint_json(self.path + ".meta", meta)

    @classmethod
    def open(cls, path: str) -> "SSTable":
        """Re-open a run from its sidecar (recovery path)."""
        meta = load_checkpoint_json(path + ".meta")
        with checkpoint_fields(path + ".meta"):
            bloom = BloomFilter.from_bytes(
                bytes.fromhex(meta["bloom_hex"]), meta["bloom_bits"], meta["bloom_hashes"]
            )
            return cls(
                path=path,
                first_keys=meta["first_keys"],
                block_offsets=meta["block_offsets"],
                block_lengths=meta["block_lengths"],
                bloom=bloom,
                min_key=meta["min_key"],
                max_key=meta["max_key"],
                entry_count=meta["entry_count"],
                data_bytes=meta["data_bytes"],
            )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def may_contain(self, key: int) -> bool:
        """Key-range plus bloom-filter check; False is definitive."""
        if key < self.min_key or key > self.max_key:
            return False
        return self.bloom.may_contain(key)

    def block_for(self, key: int) -> Optional[int]:
        """Index of the block that could hold ``key``."""
        pos = bisect.bisect_right(self.first_keys, key) - 1
        return pos if pos >= 0 else None

    def read_block(self, block_no: int, ssd: SSDModel, blocking: bool = True) -> bytes:
        """Read one data block, charging the device model."""
        with open(self.path, "rb") as f:
            f.seek(self.block_offsets[block_no])
            data = f.read(self.block_lengths[block_no])
        if len(data) < self.block_lengths[block_no]:
            raise StorageError(f"truncated block {block_no} in {self.path}")
        ssd.random_read(len(data), blocking=blocking)
        return data

    @staticmethod
    def search_block(block: bytes, key: int) -> tuple[bool, Optional[bytes]]:
        """Scan a block for ``key``; returns ``(found, value_or_None)``."""
        offset = 0
        while offset < len(block):
            entry_key, value_len = _ENTRY.unpack_from(block, offset)
            offset += _ENTRY.size
            if value_len == TOMBSTONE:
                if entry_key == key:
                    return True, None
                continue
            if entry_key == key:
                return True, bytes(block[offset : offset + value_len])
            offset += value_len
        return False, None

    def iterate(self, ssd: SSDModel, blocking: bool = False) -> Iterator[tuple[int, Optional[bytes]]]:
        """Stream all entries (compaction input); one sequential charge."""
        with open(self.path, "rb") as f:
            data = f.read()
        ssd.sequential_read(len(data), blocking=blocking)
        offset = 0
        while offset < len(data):
            key, value_len = _ENTRY.unpack_from(data, offset)
            offset += _ENTRY.size
            if value_len == TOMBSTONE:
                yield key, None
            else:
                yield key, bytes(data[offset : offset + value_len])
                offset += value_len

    def remove_files(self) -> None:
        """Delete the table's data and meta files from disk."""
        for path in (self.path, self.path + ".meta"):
            if os.path.exists(path):
                os.remove(path)
