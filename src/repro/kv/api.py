"""Common interface implemented by all storage engines.

Keys are non-negative integers (sparse feature identifiers); values are
opaque ``bytes``.  A batch moves as lists (``multi_get`` / ``multi_put``)
or as arrays (``get_rows`` / ``put_rows``: an integer key array and a
``uint8[n, w]`` matrix, one value per row, both the caller's).  The array
verbs are *defined* as the list verbs over ``keys.tolist()`` and
:func:`row_values` — results, exceptions, counters, simulated charges —
which is their default implementation; an override only skips the per-row
``bytes``.  The embedding layer above frames its vectors as such matrices
with :mod:`repro.kv.common.serialization`.

Everything a caller may ask a store about is declared on :class:`KVStore`
with the answer of a store that lacks the capability — no device model or
clock, no staleness bound, no directory, a stall handler ignored, a
look-ahead that stages nothing into a buffer that holds nothing — so
callers read attributes instead of probing for them, and a composite
store (router, replica group) computes the same answers from its
children.
"""

from __future__ import annotations

import importlib
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from types import TracebackType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

import numpy as np

from repro.errors import CheckpointError, StorageError

if TYPE_CHECKING:
    from repro.device.clock import SimClock
    from repro.device.ssd import SSDModel

#: Fraction of the per-operation CPU cost charged for each key inside a
#: batched operation.  The remainder of a full op cost is paid once per
#: batch: latch acquisition, index setup and call dispatch amortize
#: across the batch, while per-key probe work does not.
BATCH_CPU_FRACTION = 0.4


@dataclass
class StoreStats:
    """Operation and cache counters kept by every engine."""

    gets: int = 0
    puts: int = 0
    deletes: int = 0
    hits: int = 0
    misses: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def hit_ratio(self) -> float:
        """Hits over total lookups; 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def row_values(rows: np.ndarray) -> list[bytes]:
    """The rows of a C-contiguous ``uint8`` matrix as ``bytes`` values."""
    if rows.shape[1] == 0:
        return [b""] * len(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()


def check_rows(keys: np.ndarray, rows: np.ndarray) -> None:
    """What only an array call can get wrong, rejected before anything is
    charged: ``keys`` 1-D integers, ``rows`` C-contiguous ``uint8[n, w]``."""
    if not (isinstance(keys, np.ndarray) and keys.ndim == 1 and keys.dtype.kind in "iu"
            and isinstance(rows, np.ndarray) and rows.dtype == np.uint8
            and rows.flags.c_contiguous and rows.shape[:-1] == keys.shape):
        raise ValueError("need a 1-D integer key array and a C-contiguous uint8[n, w] matrix")


def piece_values(pieces: list) -> list[Optional[bytes]]:
    """The values of a batched Get an engine delivered in *pieces*, in key
    order: a ``uint8`` matrix for a run of present keys, or one key's
    ``bytes`` / ``None``."""
    values: list[Optional[bytes]] = []
    for piece in pieces:
        values += row_values(piece) if isinstance(piece, np.ndarray) else [piece]
    return values


def fill_rows(keys: np.ndarray, out: np.ndarray, pieces: list) -> np.ndarray:
    """The same pieces as the ``found`` mask and ``out`` rows of
    :meth:`KVStore.get_rows`; the first value that is not a row raises."""
    found = np.zeros(len(keys), dtype=bool)
    at = 0
    for piece in pieces:
        if piece is None:
            at += 1
            continue
        if not isinstance(piece, np.ndarray):
            piece = np.frombuffer(piece, dtype=np.uint8).reshape(1, len(piece))
        if len(piece):
            if piece.shape[1] != out.shape[1]:
                raise ValueError(f"key {keys[at]} holds {piece.shape[1]} bytes, not {out.shape[1]}")
            out[at : at + len(piece)] = piece
            found[at : at + len(piece)] = True
            at += len(piece)
    return found


def store_class(dotted: str) -> type["KVStore"]:
    """The :class:`KVStore` class a checkpoint manifest names by its dotted
    path, to call ``restore`` on.  A name that does not import, or names
    anything but a :class:`KVStore` subclass, is a :class:`CheckpointError`
    — nothing beyond the named module is imported, nothing is opened."""
    module_name, _, class_name = dotted.rpartition(".")
    try:
        found = getattr(importlib.import_module(module_name), class_name)
    except (ImportError, AttributeError, ValueError) as exc:
        raise CheckpointError(f"manifest names unknown store type {dotted!r}") from exc
    if not (isinstance(found, type) and issubclass(found, KVStore)):
        raise CheckpointError(f"manifest type {dotted!r} is not a KVStore")
    return found


class CheckpointManager(ABC):
    """Durability contract implemented by every persistent engine.

    A checkpoint is a crash-consistent on-disk image rooted at
    :meth:`checkpoint_root`; :meth:`checkpoint_files` enumerates the files
    making up the image so an uploader (``CloudCheckpointer``) can diff
    successive images and copy only what changed.  :meth:`restore` is the
    inverse: reopen a store from a directory holding such an image —
    whether left behind by a crash or downloaded from a bucket.
    """

    directory: Optional[str]

    @abstractmethod
    def checkpoint(self) -> None:
        """Persist a crash-consistent image under :meth:`checkpoint_root`.

        After this returns, every acknowledged write is recoverable by
        :meth:`restore` from the file set :meth:`checkpoint_files` names.
        """

    def checkpoint_root(self) -> str:
        """Base directory containing the durable image."""
        if self.directory is None:
            raise CheckpointError(
                f"{type(self).__name__} has no checkpoint directory"
            )
        return self.directory

    def checkpoint_files(self) -> list[str]:
        """Relative paths of every file in the durable image, sorted.

        The default walks :meth:`checkpoint_root` recursively, skipping
        in-flight temporaries (``*.tmp``).  Engines whose directories hold
        non-durable scratch files override this.
        """
        root = self.checkpoint_root()
        found: list[str] = []
        for dirpath, _, filenames in os.walk(root):
            for name in filenames:
                if not name.endswith(".tmp"):
                    found.append(os.path.relpath(os.path.join(dirpath, name), root))
        return sorted(found)

    @classmethod
    @abstractmethod
    def restore(cls, directory: str, **kwargs: Any) -> "KVStore":
        """Reopen a store from the durable image in ``directory``."""


class KVStore(ABC):
    """Abstract key-value store with the interface MLKV builds on."""

    #: Stores opened for serving may be frozen: logical mutation raises.
    #: Class-level default so engines need no constructor changes; see
    #: :meth:`freeze`.
    read_only: bool = False
    #: The device model the store charges; ``None`` when it has none (a
    #: composite: when its children do not share one).
    ssd: Optional["SSDModel"] = None
    #: The simulated clock the store charges, ``None`` likewise.
    clock: Optional["SimClock"] = None
    #: Outstanding Gets a key admits before a Get is held (MLKV's vector
    #: clocks); ``None``: Gets are never held.
    staleness_bound: Optional[int] = None
    #: Where the store keeps its files; ``None`` for one that keeps none.
    directory: Optional[str] = None
    #: Simulated CPU seconds one operation costs on :attr:`clock`.
    op_cpu_seconds: float = 0.0

    @abstractmethod
    def get(self, key: int) -> Optional[bytes]:
        """Return the value for ``key`` or ``None`` if absent."""

    @abstractmethod
    def put(self, key: int, value: bytes) -> None:
        """Insert or overwrite ``key``."""

    @abstractmethod
    def delete(self, key: int) -> bool:
        """Remove ``key``; returns whether it existed."""

    @abstractmethod
    def close(self) -> None:
        """Flush and release resources; the store must not be used after."""

    @property
    @abstractmethod
    def stats(self) -> StoreStats:
        """Live counters for hits/misses/op counts."""

    def read_counts(self) -> tuple[int, int]:
        """``(stats.hits, stats.misses)`` without a stats snapshot: a
        composite sums its children's instead of merging their stats."""
        stats = self.stats
        return stats.hits, stats.misses

    def multi_get(self, keys: Iterable[int]) -> list[Optional[bytes]]:
        """Batched get preserving input order (``None`` for absent keys).

        ``keys`` may be any iterable (generators included); it is
        materialized exactly once.  The result is positionally aligned
        with the input: ``result[i]`` corresponds to the i-th key, and
        duplicate keys are each looked up.  Engines override this with
        genuinely batched hot paths; this default is the per-key loop
        those paths amortize.
        """
        keys = self._normalize_keys(keys)
        return [self.get(key) for key in keys]

    def multi_put(self, keys: Iterable[int], values: Iterable[bytes]) -> None:
        """Batched put applied in input order (the last duplicate wins).

        ``keys`` and ``values`` may be any iterables; both are
        materialized exactly once and must describe the same number of
        entries, otherwise :class:`ValueError` is raised.  After the call
        returns, the store state equals a sequential application of the
        individual puts.
        """
        keys, values = self._normalize_pairs(keys, values)
        for key, value in zip(keys, values):
            self.put(key, value)

    def get_rows(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``multi_get(keys.tolist())`` into the rows of ``out``, a
        C-contiguous ``uint8[n, w]`` matrix the caller owns.  Returns
        ``found`` (``bool[n]``): row ``i`` holds key ``i``'s value where set
        and is left as it was where the key is absent.  A present value that
        is not ``w`` bytes long raises :class:`ValueError` once the batch
        has been read."""
        check_rows(keys, out)
        return fill_rows(keys, out, self.multi_get(keys.tolist()))

    def put_rows(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """``multi_put(keys.tolist(), row_values(rows))``: one ``w``-byte
        value per key from the ``uint8[n, w]`` matrix ``rows``, which the
        store does not keep."""
        check_rows(keys, rows)
        self.multi_put(keys.tolist(), row_values(rows))

    @staticmethod
    def _normalize_keys(keys: Iterable[int]) -> list[int]:
        """Materialize a key iterable (generators have no ``len``); an
        array becomes Python ints in one pass, not NumPy scalars."""
        return keys.tolist() if isinstance(keys, np.ndarray) else list(keys)

    @staticmethod
    def _normalize_pairs(
        keys: Iterable[int], values: Iterable[bytes]
    ) -> tuple[list[int], list[bytes]]:
        """Materialize both iterables and enforce equal lengths."""
        keys = KVStore._normalize_keys(keys)
        values = list(values)
        if len(keys) != len(values):
            raise ValueError(
                "multi_put requires equally many keys and values; "
                f"got {len(keys)} keys and {len(values)} values"
            )
        return keys, values

    def _charge_batch_cpu(self, count: int) -> None:
        """Charge amortized CPU for a ``count``-key batched operation.

        One full op cost covers the batch setup plus the first key; every
        further key costs ``BATCH_CPU_FRACTION`` of an op.  Engines
        without a simulated clock (or with ``op_cpu_seconds=0``) charge
        nothing, matching their per-key paths.
        """
        if self.clock is not None and self.op_cpu_seconds and count:
            self.clock.advance(
                self.op_cpu_seconds * (1.0 + BATCH_CPU_FRACTION * (count - 1)),
                component="cpu",
            )

    def set_stall_handler(self, handler: Optional[Callable[[int], bool]]) -> None:
        """Register the hook a Get held by :attr:`staleness_bound` runs
        (``handler(key)`` returns whether it made progress).  A store that
        never holds a Get has nothing to call it for and ignores it."""

    def lookahead(self, keys: Iterable[int]) -> int:
        """Stage ``keys`` into the store's memory ahead of their Gets,
        without admitting them; returns the records moved.  A store
        without an in-store prefetch path stages nothing: 0."""
        return 0

    def lookahead_capacity(self, value_bytes: int) -> int:
        """How many records of ``value_bytes``-byte values :meth:`lookahead`
        can stage before the first of them is pushed out of the region
        where a Put updates it in place; a look-ahead window sizes itself
        by it.  A store that stages nothing holds none: 0."""
        return 0

    def snapshot_read(self, key: int) -> Optional[bytes]:
        """Committed read for serving/evaluation: no admission side effects.

        Engines with an admission protocol (MLKV's vector clocks) override
        this with their committed-read path so a serving tier can read a
        restored image without consuming staleness budget; for plain
        engines a ``get`` already is the committed read.
        """
        return self.get(key)

    def snapshot_read_many(self, keys: Iterable[int]) -> list[Optional[bytes]]:
        """Batched :meth:`snapshot_read` preserving input order."""
        return self.multi_get(keys)

    def freeze(self) -> "KVStore":
        """Switch the store to read-only serving mode.

        After freezing, ``put``/``delete``/``multi_put``/``put_rows`` raise
        :class:`~repro.errors.StorageError`.  Reads — including look-ahead
        staging, which re-appends existing values without changing the
        store's logical content — remain available.  Returns ``self`` so
        ``restore(...).freeze()`` chains.
        """
        self.read_only = True
        return self

    def _check_writable(self) -> None:
        """Raise when a mutation reaches a frozen store."""
        if self.read_only:
            raise StorageError(
                f"{type(self).__name__} is frozen (read-only serving mode); "
                "writes are not allowed"
            )

    def scan(self) -> Iterator[tuple[int, bytes]]:  # pragma: no cover - optional
        """Iterate all live records; order is engine-specific."""
        raise NotImplementedError(f"{type(self).__name__} does not support scans")

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()
