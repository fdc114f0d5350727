"""Bloom filter for SSTable point-lookup pruning.

Double hashing over two independent 64-bit mixes of the key; the bit array
is a Python ``bytearray`` so filters serialize directly into SSTable
footers.  Never reports false negatives (property-tested).
"""

from __future__ import annotations

import math

import numpy as np


def _mix64(x: int) -> int:
    """SplitMix64 finalizer — a cheap, well-distributed 64-bit mix."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


_MIX_ADD = np.uint64(0x9E3779B97F4A7C15)
_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix64_many(keys: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over a ``uint64`` array, into a new array (``uint64``
    arithmetic wraps modulo 2**64 as the masks above do)."""
    x = keys + _MIX_ADD
    x ^= x >> _SHIFT1
    x *= _MIX_MUL1
    x ^= x >> _SHIFT2
    x *= _MIX_MUL2
    x ^= x >> _SHIFT3
    return x


class BloomFilter:
    """Bloom filter over integer keys.

    Parameters
    ----------
    capacity:
        Expected number of distinct keys.
    bits_per_key:
        Space budget; 10 bits/key gives ≈1% false-positive rate, the
        RocksDB default.
    """

    def __init__(self, capacity: int, bits_per_key: int = 10) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if bits_per_key <= 0:
            raise ValueError("bits_per_key must be positive")
        self.num_bits = max(64, capacity * bits_per_key)
        self.num_hashes = max(1, round(bits_per_key * math.log(2)))
        self._bits = bytearray(-(-self.num_bits // 8))

    def _positions(self, key: int):
        h1 = _mix64(key)
        h2 = _mix64(h1) | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: int) -> None:
        """Set the key's hash bit positions."""
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)

    def may_contain(self, key: int) -> bool:
        """False means definitely absent; True means probably present."""
        return all(self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(key))

    def to_bytes(self) -> bytes:
        """Serialize the bit array (pair with :meth:`from_bytes`)."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes, num_bits: int, num_hashes: int) -> "BloomFilter":
        """Rebuild a filter from :meth:`to_bytes` output and its geometry."""
        filt = cls.__new__(cls)
        filt.num_bits = num_bits
        filt.num_hashes = num_hashes
        filt._bits = bytearray(data)
        return filt
