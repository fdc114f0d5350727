"""YCSB-style workload generation (paper §IV-E, Figure 10).

Implements the two key-choosers the paper sweeps — uniform and the
classic YCSB *scrambled zipfian* (Gray's incremental zeta construction
with FNV hashing to decorrelate rank from key id) — and the 50% read /
50% update operation mix run against MLKV and FASTER.

Both choosers draw keys a chunk at a time as arrays (inverse CDF, FNV-1a
as eight xor/multiply rounds on a ``uint64`` array); ``next_key()`` and
``batch(n)`` read that one stream (:mod:`repro.data.draws`).  The scalar
:func:`fnv1a_64` / ``_next_rank`` stay as the reference: a rank is a
truncated libm ``pow``, NumPy's may differ by an ulp, so one within 1e-6
of an integer is re-derived by the scalar code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.draws import ChunkedStream

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_64(value: int) -> int:
    """64-bit FNV-1a over the little-endian bytes of ``value``."""
    data = value.to_bytes(8, "little", signed=False)
    state = _FNV_OFFSET
    for byte in data:
        state ^= byte
        state = (state * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return state


def fnv1a_64_many(values: np.ndarray) -> np.ndarray:
    """:func:`fnv1a_64` of every element, as a ``uint64`` array."""
    values = values.astype(np.uint64)
    state = np.full(values.shape, _FNV_OFFSET, dtype=np.uint64)
    for shift in range(0, 64, 8):
        state ^= (values >> np.uint64(shift)) & np.uint64(0xFF)
        state *= np.uint64(_FNV_PRIME)  # wraps mod 2^64, like the mask above
    return state


class UniformGenerator:
    """Uniform key chooser over ``[0, item_count)``."""

    def __init__(self, item_count: int, seed: int = 0) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        self.item_count = item_count
        rng = np.random.default_rng(seed)
        self._keys = ChunkedStream(lambda n: rng.integers(0, item_count, n))

    def next_key(self) -> int:
        return next(self._keys.scalars)

    def batch(self, n: int) -> np.ndarray:
        return self._keys.take(n)

    def hot_mass(self) -> float:
        """Σ pₖ² — collision probability of two independent accesses."""
        return 1.0 / self.item_count


class ZipfianGenerator:
    """YCSB's scrambled zipfian chooser with constant 0.99.

    Draws zipf-distributed *ranks* using the standard inverse-CDF
    construction, then scrambles rank → key with FNV so that hot keys are
    spread over the key space (YCSB's ``ScrambledZipfianGenerator``).
    """

    def __init__(self, item_count: int, theta: float = 0.99, seed: int = 0) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.item_count = item_count
        self.theta = theta
        self._rng = np.random.default_rng(seed)
        self._zetan = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        # Two items: ranks 0 and 1 carry all the mass; eta (0 / 0) is unread.
        self._eta = 0.0 if item_count == 2 else (
            1.0 - (2.0 / item_count) ** (1.0 - theta)
        ) / (1.0 - self._zeta2 / self._zetan)
        self._keys = ChunkedStream(self._draw)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        return float((1.0 / np.power(ranks, theta)).sum())

    def _next_rank(self, u: float) -> int:
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.item_count * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def _draw(self, n: int) -> np.ndarray:
        """The key stream's next ``n`` keys (``_next_rank`` + FNV, as arrays)."""
        draws = self._rng.random(n)
        scaled = self.item_count * (self._eta * draws - self._eta + 1.0) ** self._alpha
        ranks = scaled.astype(np.int64)
        uz = draws * self._zetan
        ranks[uz < 1.0 + 0.5 ** self.theta] = 1
        ranks[uz < 1.0] = 0
        for index in np.flatnonzero(np.abs(scaled - np.rint(scaled)) < 1e-6).tolist():
            ranks[index] = self._next_rank(float(draws[index]))
        return (fnv1a_64_many(ranks) % np.uint64(self.item_count)).astype(np.int64)

    def next_key(self) -> int:
        return next(self._keys.scalars)

    def batch(self, n: int) -> np.ndarray:
        return self._keys.take(n)

    def hot_mass(self) -> float:
        """Σ pₖ² under the zipf pmf (dominated by the head)."""
        ranks = np.arange(1, min(self.item_count, 10000) + 1, dtype=np.float64)
        probs = (1.0 / np.power(ranks, self.theta)) / self._zetan
        return float((probs * probs).sum())


@dataclass
class YCSBOp:
    is_read: bool
    key: int


class YCSBWorkload:
    """50/50 read/update workload over a loaded key space.

    Parameters
    ----------
    item_count:
        Number of pre-loaded keys.
    value_bytes:
        Value size (the Figure 10 right panel sweeps this).
    distribution:
        ``"uniform"`` or ``"zipfian"``.
    read_fraction:
        Paper uses 0.5.
    """

    def __init__(
        self,
        item_count: int,
        value_bytes: int = 64,
        distribution: str = "zipfian",
        read_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        if distribution == "uniform":
            self.generator = UniformGenerator(item_count, seed=seed)
        elif distribution == "zipfian":
            self.generator = ZipfianGenerator(item_count, seed=seed)
        else:
            raise ValueError(f"unknown distribution {distribution!r}")
        self.item_count = item_count
        self.value_bytes = value_bytes
        self.read_fraction = read_fraction
        self._rng = np.random.default_rng(seed ^ 0x5C3A)

    def load_values(self) -> Iterator[tuple[int, bytes]]:
        """Initial dataset: every key with a deterministic payload."""
        for key in range(self.item_count):
            yield key, self.payload(key)

    def payload(self, key: int) -> bytes:
        return bytes([key % 251]) * self.value_bytes

    def operations(self, count: int) -> Iterator[YCSBOp]:
        reads = self._rng.random(count) < self.read_fraction
        for is_read in reads:
            yield YCSBOp(is_read=bool(is_read), key=self.generator.next_key())

    def hot_mass(self) -> float:
        return self.generator.hot_mass()
