"""Common interface implemented by all storage engines.

Keys are non-negative integers (sparse feature identifiers); values are
opaque ``bytes``.  The embedding layer above serializes vectors with
:mod:`repro.kv.common.serialization`.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import CheckpointError, StorageError

#: Fraction of the per-operation CPU cost charged for each key inside a
#: batched operation.  The remainder of a full op cost is paid once per
#: batch: epoch/latch acquisition, index setup and call dispatch amortize
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


def walk_image_files(root: str) -> list[str]:
    """Relative paths of every durable file under ``root``, sorted.

    The single definition of what belongs to a checkpoint image:
    everything except in-flight temporaries (``*.tmp``).  Shared by
    :meth:`CheckpointManager.checkpoint_files` and the uploader's
    duck-typed fallback so the two can never disagree.
    """
    found: list[str] = []
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".tmp"):
                continue
            found.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(found)


class CheckpointManager(ABC):
    """Durability contract implemented by every persistent engine.

    A checkpoint is a crash-consistent on-disk image rooted at
    :meth:`checkpoint_root`; :meth:`checkpoint_files` enumerates the files
    making up the image so an uploader (``CloudCheckpointer``) can diff
    successive images and copy only what changed.  :meth:`restore` is the
    inverse: reopen a store from a directory holding such an image —
    whether left behind by a crash or downloaded from a bucket.
    """

    @abstractmethod
    def checkpoint(self) -> None:
        """Persist a crash-consistent image under :meth:`checkpoint_root`.

        After this returns, every acknowledged write is recoverable by
        :meth:`restore` from the file set :meth:`checkpoint_files` names.
        """

    def checkpoint_root(self) -> str:
        """Base directory containing the durable image."""
        root: Optional[str] = getattr(self, "directory", None)
        if root is None:
            raise CheckpointError(
                f"{type(self).__name__} has no checkpoint directory"
            )
        return root

    def checkpoint_files(self) -> list[str]:
        """Relative paths of every file in the durable image, sorted.

        The default walks :meth:`checkpoint_root` recursively, skipping
        in-flight temporaries (``*.tmp``).  Engines whose directories hold
        non-durable scratch files override this.
        """
        return walk_image_files(self.checkpoint_root())

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

    def rmw(self, key: int, update: Callable[[Optional[bytes]], bytes]) -> bytes:
        """Read-modify-write: apply ``update`` to the current value.

        Engines with cheaper in-place paths override this; the default is
        get-then-put.
        """
        new_value = update(self.get(key))
        self.put(key, new_value)
        return new_value

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

    def multi_rmw(
        self,
        keys: Iterable[int],
        update: Callable[[list[int], list[Optional[bytes]]], list[bytes]],
    ) -> list[bytes]:
        """Batched read-modify-write; returns the new values written.

        ``update(sub_keys, current_values) -> new_values`` receives the
        *committed* current values (``None`` for absent keys) and returns
        one new value per key.  Keys must be unique within the batch.
        Composed stores may invoke ``update`` once per sub-batch (e.g.
        per shard), so it must not rely on seeing the whole batch at
        once — look values up by key, not by global position.

        The read half uses :meth:`read_current_many` (a committed read,
        never an admission-counting Get): server-side RMW is a storage
        maintenance path, not a training read, so it must not consume
        staleness budget.  This is the parameter-server apply path:
        workers push optimizer *deltas* and the server folds them into
        the stored rows without round-tripping rows through workers.
        """
        keys = self._normalize_keys(keys)
        new_values = update(keys, self.read_current_many(keys))
        new_values = list(new_values)
        if len(new_values) != len(keys):
            raise ValueError(
                f"multi_rmw update returned {len(new_values)} values "
                f"for {len(keys)} keys"
            )
        self.multi_put(keys, new_values)
        return new_values

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

    @staticmethod
    def _normalize_keys(keys: Iterable[int]) -> list[int]:
        """Materialize a key iterable (generators have no ``len``)."""
        return list(keys)

    @staticmethod
    def _normalize_pairs(
        keys: Iterable[int], values: Iterable[bytes]
    ) -> tuple[list[int], list[bytes]]:
        """Materialize both iterables and enforce equal lengths."""
        keys = list(keys)
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
        op_cpu_seconds = getattr(self, "op_cpu_seconds", 0.0)
        clock = getattr(self, "clock", None)
        if clock is not None and op_cpu_seconds and count:
            clock.advance(
                op_cpu_seconds * (1.0 + BATCH_CPU_FRACTION * (count - 1)),
                component="cpu",
            )

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

    def read_current_many(self, keys: Iterable[int]) -> list[Optional[bytes]]:
        """Committed values that are safe to copy elsewhere or write back.

        For an engine that is its committed read.  A store whose routed
        reads may be bounded-stale (a replica group) overrides this to
        answer from a copy holding every acknowledged write: it is what
        :meth:`multi_rmw` folds its update over and what a live shard
        migration copies from, so a stale read never becomes a write.
        """
        return self.snapshot_read_many(keys)

    def freeze(self) -> "KVStore":
        """Switch the store to read-only serving mode.

        After freezing, ``put``/``delete``/``rmw``/``multi_put`` raise
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
