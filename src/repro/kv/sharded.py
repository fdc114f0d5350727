"""The shard router: hash-partitioned composition of key-value stores.

:class:`ShardedKVStore` partitions the integer key space across N
children with a mixed hash, giving the horizontal scale-out layer the
paper's deployment section assumes.  It is the **only** place in
``repro.kv`` that splits a batch by owner, fans the sub-batches out and
scatters the results back into input order; everything it fans out *to*
is just a :class:`~repro.kv.api.KVStore`:

* a local engine (FASTER / MLKV / LSM / B-tree, any mix),
* a :class:`~repro.kv.replicated.ReplicaGroup` — N engines holding one
  key range behind routed reads and fan-out writes; a router of groups
  is the replicated store, and the groups own every replica setting and
  operator verb.

A child is whatever ``factory(index)`` returns, for the initial shards
and for every split target alike; the router has no subclass hooks.
Slot-table routing, live splits with deferred cleanup, stats
aggregation, the store contract computed from the children (``ssd``,
``clock``, ``staleness_bound``, ``set_stall_handler``, ``lookahead``,
``lookahead_capacity``: what they share, never an ``AttributeError``)
and the coordinated checkpoint manifest apply to every kind of child,
so replication and live splits compose.

Batched operations are the reason this layer exists: ``multi_get`` /
``multi_put`` and the array verbs ``get_rows`` / ``put_rows`` split one
application batch into at most one *sub-batch per shard*, so every child
still gets its amortized batched hot path rather than degenerating into
per-key routing.

The shard function is a splitmix64 finalizer over the key, so dense
sparse-feature id ranges (0..n) spread uniformly instead of striping by
``key % n`` — the per-shard balance counters exposed through
:meth:`ShardedKVStore.balance` let benchmarks and tests verify that.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import CheckpointError, ConfigError, checkpoint_fields
from repro.errors import load_checkpoint_json, write_checkpoint_json
from repro.kv.api import CheckpointManager, KVStore, StoreStats, check_rows, store_class
from repro.kv.common.bloom import _mix64, _mix64_many
from repro.obs.trace import span as obs_span

_MANIFEST = "sharded.manifest.json"


def shard_hash(key: int) -> int:
    """splitmix64 finalizer: decorrelates shard choice from key locality."""
    return _mix64(int(key))


def shard_hash_array(keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`shard_hash` over an array of non-negative keys.

    uint64 arithmetic wraps modulo 2**64 exactly like the masked Python
    version, so the two agree bit for bit on every key.
    """
    return _mix64_many(keys.astype(np.uint64, copy=False))


def _owners(keys: np.ndarray, slots: Sequence[int]) -> np.ndarray:
    """The engine owning each key of an array under a slot table."""
    slot_arr = np.asarray(slots, dtype=np.int64)
    return slot_arr[shard_hash_array(keys) % np.uint64(len(slot_arr))]


def partition_array(keys: np.ndarray, slots: Sequence[int]) -> list[tuple[int, np.ndarray]]:
    """``(shard, positions)`` of a non-empty array of non-negative keys:
    positions in input order, shards in order of first appearance."""
    shard_idx = _owners(keys, slots)
    order = np.argsort(shard_idx, kind="stable")
    starts = np.flatnonzero(np.diff(shard_idx[order])) + 1
    groups = sorted(np.split(order, starts), key=lambda group: group[0])
    return [(int(shard_idx[group[0]]), group) for group in groups]


def partition_positions(keys: list, slots: Sequence[int]) -> dict[int, list[int]]:
    """Group batch *positions* by owning shard under a slot table.

    One vectorized splitmix64 pass names every key's shard, and one walk
    over those names files each position under its shard: per-shard
    position lists preserve input order, and shards come out in order of
    first appearance in the batch — the order the per-key loop visits
    them, which is observable when the children share one simulated
    clock.  (The walk costs a list append a key, which the caller's
    per-shard key lists cost anyway; grouping by a sort instead costs a
    dozen NumPy calls a batch, more than the walk below a few hundred
    keys, where the serving tier's batches are.)  Keys the uint64
    conversion rejects fall back to the per-key loop (out-of-range values
    then surface the engine's own error downstream).  The only
    partitioner of a list in ``repro.kv``.
    """
    try:
        array = np.array(keys, dtype=np.uint64) if len(keys) > 1 else None
    except (OverflowError, TypeError, ValueError):
        array = None
    if array is None:
        owners = [slots[shard_hash(key) % len(slots)] for key in keys]
    else:
        owners = _owners(array, slots).tolist()
    by_shard: dict[int, list[int]] = {}
    for position, shard in enumerate(owners):
        group = by_shard.get(shard)
        if group is None:
            by_shard[shard] = [position]
        else:
            group.append(position)
    return by_shard


# ----------------------------------------------------------------------
# what every composite store (router, replica group) asks of its children
# ----------------------------------------------------------------------
def record_count(store: KVStore) -> int:
    """Live records in ``store``.

    Hash-indexed engines answer ``len`` in O(1); engines without
    ``__len__`` (LSM, B+tree) are counted by scanning — correct but O(n).
    """
    try:
        return len(store)  # type: ignore[arg-type]
    except TypeError:
        return sum(1 for _ in store.scan())


def shared_ssd(children: Sequence[KVStore]):
    """The device model every child charges, or ``None``: children with
    private devices (or none) have no single queue or timeline."""
    first = children[0].ssd
    return first if all(child.ssd is first for child in children) else None


def shared_clock(children: Sequence[KVStore]):
    """The simulated clock of the device model every child shares, or ``None``."""
    ssd = shared_ssd(children)
    return None if ssd is None else ssd.clock


def tightest_staleness_bound(children: Sequence[KVStore]):
    """Smallest child bound; ``None`` unless every child holds Gets to one.

    The training loop clamps its conventional prefetch window with this.
    """
    bounds = [child.staleness_bound for child in children]
    return None if None in bounds else min(bounds)


def merge_stats(children: Iterable[StoreStats]) -> StoreStats:
    """Sum child counters into a fresh :class:`StoreStats`.

    Extras merge by kind: numbers are summed and lists concatenated in
    child order, so a composite reports its children's health under the
    keys they use — a router of replica groups has the groups'
    ``failovers`` and ``catchup_keys`` summed and their
    ``hints_outstanding`` vectors (one entry per replica, -1 for an
    overflowed hint set) joined, exactly the shape one group reports.
    ``extra["shards"]`` keeps each child's own extras, in child order.
    """
    total = StoreStats()
    merged = total.extra
    per_child = []
    for child in children:
        total.gets += child.gets
        total.puts += child.puts
        total.deletes += child.deletes
        total.hits += child.hits
        total.misses += child.misses
        extra = child.extra
        if extra:
            for name, value in extra.items():
                if name == "shards":
                    continue
                if isinstance(value, list):
                    merged.setdefault(name, []).extend(value)
                else:
                    merged[name] = merged.get(name, 0) + value
        per_child.append(dict(extra))
    merged["shards"] = per_child
    return total


def sum_read_counts(children: Iterable[KVStore]) -> tuple[int, int]:
    """The children's ``read_counts()`` summed: ``merge_stats``'s hits and
    misses without the snapshot."""
    hits = misses = 0
    for child in children:
        child_hits, child_misses = child.read_counts()
        hits += child_hits
        misses += child_misses
    return hits, misses


def checkpoint_children(children: Sequence[KVStore]) -> None:
    """Have every child that can persist a crash-consistent image do so."""
    for child in children:
        snap = getattr(child, "checkpoint", None)
        if snap is not None:
            snap()


# ----------------------------------------------------------------------
# coordinated-checkpoint manifests: one writer, one reader, one way to
# turn a recorded child back into a store
# ----------------------------------------------------------------------
def write_manifest(directory: str, name: str, manifest: dict) -> None:
    """Atomically (write-temp-then-replace) bind a checkpoint unit."""
    os.makedirs(directory, exist_ok=True)
    write_checkpoint_json(os.path.join(directory, name), manifest)


def read_manifest(directory: str, name: str) -> tuple[str, dict]:
    """A manifest's path and contents; :class:`CheckpointError` if it is
    absent or torn (:func:`~repro.errors.load_checkpoint_json`)."""
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        raise CheckpointError(f"no coordinated manifest {name} in {directory}")
    return path, load_checkpoint_json(path)


def child_relpath(child: KVStore, base: str) -> str:
    """A child's directory relative to the coordinated base directory."""
    child_dir = child.directory
    if child_dir is None:
        raise CheckpointError(
            f"child {child_type(child)} has no directory; coordinated "
            "checkpoints need file-backed children"
        )
    rel = os.path.relpath(os.path.abspath(child_dir), os.path.abspath(base))
    if rel.startswith(os.pardir):
        raise CheckpointError(
            f"child directory {child_dir} is outside the coordinated base "
            f"{base}; place every child under the base directory"
        )
    return rel


def child_type(child: KVStore) -> str:
    """Dotted class path a manifest records for ``child``."""
    return f"{type(child).__module__}.{type(child).__qualname__}"


def child_opener(
    base: str, rel: str, dotted: str, factory: Optional[Callable], **kwargs
) -> Callable[..., KVStore]:
    """Validate one recorded child now; return the call that reopens it.

    The returned ``open(*index)`` is ``factory(*index, child_directory)``
    when the caller supplied a factory (to re-wire shared SSD/clock
    models or budgets), otherwise the recorded class's own ``restore``
    with ``kwargs`` forwarded.  A path escaping ``base`` or a recorded
    type that is not a :class:`KVStore` raises :class:`CheckpointError`
    (:func:`~repro.kv.api.store_class`) — before anything is opened.
    """
    path = os.path.normpath(os.path.join(base, rel))
    if os.path.isabs(rel) or os.path.relpath(path, base).startswith(os.pardir):
        raise CheckpointError(f"manifest child path {rel!r} escapes {base}")
    if factory is not None:
        return lambda *index: factory(*index, path)
    child_cls = store_class(dotted)
    return lambda *index: child_cls.restore(path, **kwargs)


def child_openers(
    base: str, rels: list, types: list, factory: Optional[Callable], **kwargs
) -> list[Callable[..., KVStore]]:
    """:func:`child_opener` for each of a manifest's recorded children."""
    if not (isinstance(rels, list) and rels and len(rels) == len(types)):
        raise ValueError("child paths and types must be equal-length lists")
    return [
        child_opener(base, rel, dotted, factory, **kwargs)
        for rel, dotted in zip(rels, types)
    ]


class ShardedKVStore(KVStore, CheckpointManager):
    """Hash-partitioned router fanning out to N child stores.

    Parameters
    ----------
    factory:
        ``factory(shard_index) -> KVStore`` building one child per
        shard; any mix of FASTER / MLKV / LSM / B-tree works, each with
        its own directory (and, for parallel-device modeling, its own
        clock + SSD).
    num_shards:
        Initial number of partitions; :meth:`begin_split` adds engines
        live.
    directory:
        Optional base directory for *coordinated* checkpoints: when every
        shard's own directory lives under it, :meth:`checkpoint` writes a
        manifest binding the per-shard images into one restorable unit.
    """

    def __init__(
        self,
        factory: Callable[[int], KVStore],
        num_shards: int,
        directory: Optional[str] = None,
    ) -> None:
        if num_shards <= 0:
            raise ConfigError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        self.directory = directory
        self._shard_ops = [0] * num_shards
        # Slot routing table: a key hashes to a *slot* (``hash % len``),
        # the slot names the owning engine.  Initially the identity, so
        # routing is exactly ``hash % num_shards``; live splits double
        # the table and re-point individual slots (see ShardMigration).
        self._slots: list[int] = list(range(num_shards))
        # The in-flight migration, if any: writes to its moving key
        # range are dual-logged into its delta.
        self._migration: Optional["ShardMigration"] = None
        # Deferred post-cutover cleanup: source engine index -> moved
        # keys awaiting deletion (routing already points at the target,
        # so these are unreachable; scans filter them until drained).
        self._cleanup_backlog: dict[int, set[int]] = {}
        self._closed = False
        self.shards: list[KVStore] = [factory(index) for index in range(num_shards)]

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def slot_of(self, key: int) -> int:
        """The routing slot ``key`` hashes to (slots move; engines host)."""
        return shard_hash(key) % len(self._slots)

    def shard_of(self, key: int) -> int:
        """Deterministic engine index for ``key`` (via the slot table)."""
        return self._slots[self.slot_of(key)]

    def _route(self, key: int) -> KVStore:
        """The child owning ``key``, counting one routed operation."""
        shard = self.shard_of(key)
        self._shard_ops[shard] += 1
        return self.shards[shard]

    def _dispatch(self, op: str, batches: list, *args) -> list:
        """Run batched ``op`` on each ``(shard, columns)`` batch, in order.

        Returns one result per batch.  ``columns`` are the shard's slices
        of the operation's positional inputs (keys, and values or rows for
        the writes); ``args`` apply to every shard.  The method is looked
        up on the child at call time, so per-instance wrappers (tracing,
        sanitizing) are honoured.
        """
        results = []
        for shard, columns in batches:
            child = self.shards[shard]
            with obs_span(
                "kv.shard",
                clock=child.clock,
                shard=shard,
                op=op,
                keys=len(columns[0]),
            ):
                results.append(getattr(child, op)(*columns, *args))
        return results

    def _fan_out(self, op: str, keys: list, values: Optional[list] = None, *args):
        """Partition one batch by owner and dispatch it.

        Returns ``(parts, results)``: the ``(shard, positions)`` groups
        and the per-group results, aligned.  Positions within a group
        keep input order, so duplicates resolve exactly as a sequential
        application would.
        """
        parts = list(partition_positions(keys, self._slots).items())
        batches = []
        for shard, positions in parts:
            self._shard_ops[shard] += len(positions)
            columns = ([keys[position] for position in positions],)
            if values is not None:
                columns += ([values[position] for position in positions],)
            batches.append((shard, columns))
        return parts, self._dispatch(op, batches, *args)

    def _gather(self, op: str, keys, *args) -> list:
        """Fan out an op yielding one value per key; reassemble in input
        order (duplicates included)."""
        keys = self._normalize_keys(keys)
        parts, outputs = self._fan_out(op, keys, None, *args)
        results: list = [None] * len(keys)
        for (_, positions), sub_results in zip(parts, outputs):
            for position, value in zip(positions, sub_results):
                results[position] = value
        return results

    def _note_writes(self, keys: Iterable[int]) -> None:
        """Dual-log writes into the in-flight migration, if any."""
        if self._migration is not None:
            for key in keys:
                self._migration.note_write(key)

    # ------------------------------------------------------------------
    # KVStore interface
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[bytes]:
        """Single-key read routed to the owning child."""
        return self._route(key).get(key)

    def snapshot_read(self, key: int) -> Optional[bytes]:
        """Committed single-key read routed to the owning child."""
        return self._route(key).snapshot_read(key)

    def put(self, key: int, value: bytes) -> None:
        """Single-key write routed to the owning child; dual-logged when
        a migration covers the key."""
        self._check_writable()
        self._route(key).put(key, value)
        self._note_writes((key,))

    def delete(self, key: int) -> bool:
        """Single-key delete routed to the owning child."""
        self._check_writable()
        existed = self._route(key).delete(key)
        self._note_writes((key,))
        return existed

    def multi_get(self, keys) -> list:
        """One batched sub-read per shard, results in input order."""
        return self._gather("multi_get", keys)

    def snapshot_read_many(self, keys) -> list:
        """Batched committed reads: one sub-batch per shard, no admissions."""
        return self._gather("snapshot_read_many", keys)

    def multi_put(self, keys, values) -> None:
        """One batched sub-write per shard.

        Positions within each shard keep their input order, so the
        last-duplicate-wins contract holds per key.
        """
        self._check_writable()
        keys, values = self._normalize_pairs(keys, values)
        self._fan_out("multi_put", keys, values)
        self._note_writes(keys)

    def _fan_rows(self, op: str, keys: np.ndarray, rows: np.ndarray):
        """Partition an array batch once and dispatch it as slices: keys and
        rows permuted so that each shard's share is one contiguous stretch,
        shards in order of first appearance.  Returns the permutation, the
        permuted rows and the per-shard results."""
        parts = partition_array(keys, self._slots)
        order = np.concatenate([group for _, group in parts])
        keys = keys[order]
        rows = rows[order] if op == "put_rows" else np.empty_like(rows)
        batches, start = [], 0
        for shard, group in parts:
            self._shard_ops[shard] += len(group)
            stop = start + len(group)
            batches.append((shard, (keys[start:stop], rows[start:stop])))
            start = stop
        return order, rows, self._dispatch(op, batches)

    def get_rows(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One ``get_rows`` of contiguous slices per shard; the rows found
        scattered back to their keys' places in ``out``."""
        check_rows(keys, out)
        if not len(keys) or keys.min() < 0:
            return super().get_rows(keys, out)
        order, rows, founds = self._fan_rows("get_rows", keys, out)
        found = np.empty(len(keys), dtype=bool)
        found[order] = held = np.concatenate(founds)
        if not held.all():  # rows of absent keys stay as they were
            order, rows = order[held], rows[held]
        out[order] = rows
        return found

    def put_rows(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """One ``put_rows`` of contiguous slices per shard."""
        self._check_writable()
        check_rows(keys, rows)
        if not len(keys) or keys.min() < 0:
            return super().put_rows(keys, rows)
        self._fan_rows("put_rows", keys, rows)
        if self._migration is not None:
            self._note_writes(keys.tolist())

    def lookahead(self, keys) -> int:
        """Fan a prefetch batch out to the children; returns the records
        they staged."""
        return sum(self._fan_out("lookahead", self._normalize_keys(keys))[1])

    def lookahead_capacity(self, value_bytes: int) -> int:
        """What the children's buffers hold together: a prefetch batch
        spreads over them as the shard hash does."""
        return sum(shard.lookahead_capacity(value_bytes) for shard in self.shards)

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """All live records: the child iterators merged shard by shard.

        Every engine's ``scan`` yields its own order (LSM sorted, FASTER
        index order, ...), so the merged stream has no global order — the
        guarantees are that each live key appears exactly once and comes
        from the shard owning it.  Serving cache warmup streams through
        this.  Keys a deferred
        post-cutover cleanup has not deleted from their old engine yet
        are filtered out of that engine's stream (the target owns them).
        """
        for index, shard in enumerate(self.shards):
            pending = self._cleanup_backlog.get(index)
            if pending:
                for key, value in shard.scan():
                    if key not in pending:
                        yield key, value
            else:
                yield from shard.scan()

    def __len__(self) -> int:
        """Live records across all shards (see :func:`record_count`).

        Keys awaiting deferred post-cutover cleanup are not counted
        (their copies on the target engine already are).
        """
        return sum(
            record_count(shard) - len(self._cleanup_backlog.get(index, ()))
            for index, shard in enumerate(self.shards)
        )

    def freeze(self) -> "ShardedKVStore":
        """Freeze every child and the router itself."""
        for shard in self.shards:
            shard.freeze()
        self.read_only = True
        return self

    def close(self) -> None:
        """Close every child."""
        if not self._closed:
            for shard in self.shards:
                shard.close()
            self._closed = True

    # ------------------------------------------------------------------
    # the store contract, computed from the children
    # ------------------------------------------------------------------
    @property
    def ssd(self):
        """The device model every child shares (see :func:`shared_ssd`), so
        the embedding layer's conventional prefetch charges it."""
        return shared_ssd(self.shards)

    @property
    def clock(self):
        """The simulated clock of the shared device model, or ``None``.

        The serving tier times queueing and batching on the store's
        clock, so a sharded store serves traffic when its children share
        one ``SSDModel``.
        """
        return shared_clock(self.shards)

    @property
    def staleness_bound(self):
        """Tightest child bound (see :func:`tightest_staleness_bound`)."""
        return tightest_staleness_bound(self.shards)

    def set_stall_handler(self, handler) -> None:
        """Register the training stall hook on every child."""
        for shard in self.shards:
            shard.set_stall_handler(handler)

    # ------------------------------------------------------------------
    # stats & balance
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        """Aggregated snapshot of all child counters.

        Unlike single engines this returns a fresh object per access (the
        children own the live counters); ``extra`` carries the per-shard
        breakdown under ``"shard_ops"`` plus each child's own extras
        under ``"shards"``.
        """
        total = merge_stats(shard.stats for shard in self.shards)
        total.extra["shard_ops"] = list(self._shard_ops)
        return total

    def read_counts(self) -> tuple[int, int]:
        """Hits and misses summed over the shards (no merged snapshot)."""
        return sum_read_counts(self.shards)

    def balance(self) -> list[int]:
        """Operations routed to each shard since construction."""
        return list(self._shard_ops)

    def imbalance(self) -> float:
        """Max/mean ratio of routed ops (1.0 = perfectly balanced)."""
        total = sum(self._shard_ops)
        if total == 0:
            return 1.0
        return max(self._shard_ops) / (total / self.num_shards)

    # ------------------------------------------------------------------
    # coordinated checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Coordinated checkpoint: every child, then one binding manifest.

        Each child persists its own crash-consistent image first; the
        manifest naming all of them is written (atomically) last, so a
        crash mid-checkpoint leaves the previous manifest authoritative.
        Note the manifest pins child *locations*, not image versions: a
        crash between two child checkpoints leaves mixed-epoch images on
        local disk, so cross-shard crash atomicity comes from uploading
        the unit through :class:`~repro.core.checkpoint.CloudCheckpointer`,
        whose epoch manifests pin every file by content digest.  Without
        a base ``directory`` this degrades to the per-child checkpoints
        only.
        """
        while self._cleanup_backlog:
            self.cleanup_step(4096)
        checkpoint_children(self.shards)
        if self.directory is not None:
            write_manifest(self.directory, _MANIFEST, {
                "num_shards": self.num_shards,
                "shards": [child_relpath(shard, self.directory) for shard in self.shards],
                "types": [child_type(shard) for shard in self.shards],
                "slots": list(self._slots),
            })

    @classmethod
    def restore(
        cls,
        directory: str,
        factory: Optional[Callable[[int, str], KVStore]] = None,
        **kwargs,
    ) -> "ShardedKVStore":
        """Reopen a coordinated checkpoint as one sharded store.

        ``factory(shard_index, shard_directory)`` rebuilds one child from
        its image — use it to re-wire shared SSD/clock models or custom
        budgets.  When omitted, each child's class recorded in the
        manifest is imported and its own ``restore`` is called with
        ``kwargs`` forwarded.
        """
        path, manifest = read_manifest(directory, _MANIFEST)
        with checkpoint_fields(path):
            openers = child_openers(
                directory, manifest["shards"], manifest["types"], factory, **kwargs
            )
        store = cls(lambda index: openers[index](index), len(openers), directory=directory)
        store._adopt_slots(manifest.get("slots"))
        return store

    def _adopt_slots(self, slots) -> None:
        """Install a checkpointed slot table (absent: identity routing)."""
        if slots is None:
            return
        if not (
            isinstance(slots, list)
            and slots
            and all(
                isinstance(slot, int) and 0 <= slot < len(self.shards)
                for slot in slots
            )
        ):
            raise CheckpointError(
                f"manifest slot table {slots!r} is not a list of engine "
                f"indices within 0..{len(self.shards) - 1}"
            )
        self._slots = list(slots)

    # ------------------------------------------------------------------
    # live split with copy-then-cutover
    # ------------------------------------------------------------------
    def begin_split(self, shard_index: int, factory: Callable) -> "ShardMigration":
        """Start splitting one engine's key range onto a new engine.

        If the engine owns a single routing slot, the slot table doubles
        first (pure routing arithmetic: slot ``s`` becomes slots ``s``
        and ``s + L`` pointing at the same engine, and a key lands on
        ``s + L`` exactly when it landed on ``s`` under the old modulus
        — no data moves).  The highest slot the engine owns is then
        marked *moving*: its keys are snapshot-copied to the new child
        built from ``factory`` (same shape as the constructor's, called
        for engine index ``len(shards)``) while the source keeps serving
        reads and absorbing writes (dual-logged as deltas).
        :meth:`ShardMigration.cutover` replays the deltas, re-points the
        slot, and removes the moved keys from the source.
        """
        owned = self._owned_slots(shard_index)
        if len(owned) == 1:
            self._slots = self._slots + self._slots
            owned = [owned[0], owned[0] + len(self._slots) // 2]
        target = factory(len(self.shards))
        self._migration = ShardMigration(self, shard_index, target, moving_slot=owned[-1])
        return self._migration

    def cleanup_pending(self) -> int:
        """Moved keys still awaiting deferred post-cutover deletion."""
        return sum(len(keys) for keys in self._cleanup_backlog.values())

    def cleanup_step(self, batch: int = 1024) -> int:
        """Delete up to ``batch`` deferred-cleanup keys; returns the rest.

        The counterpart of :meth:`ShardMigration.copy_step` for the
        *after* side of a cutover made with ``defer_cleanup=True``: each
        call physically deletes a bounded chunk of moved keys from their
        old engine, so an autoscaler can spread the cleanup across
        serving batches the same way it spreads the copy.  Routing
        already points at the target, so the order and pacing of these
        deletes is invisible to readers.
        """
        if batch < 1:
            raise ConfigError(f"cleanup batch must be >= 1, got {batch}")
        budget = batch
        for index in sorted(self._cleanup_backlog):
            if budget == 0:
                break
            pending = self._cleanup_backlog[index]
            shard = self.shards[index]
            for key in sorted(pending)[:budget]:
                shard.delete(key)
                pending.discard(key)
                budget -= 1
            if not pending:
                del self._cleanup_backlog[index]
        return self.cleanup_pending()

    def _owned_slots(self, shard_index: int) -> list[int]:
        """Check a migration may start; the slots ``shard_index`` owns."""
        if not 0 <= shard_index < len(self.shards):
            raise ConfigError(
                f"no engine {shard_index}; have {len(self.shards)} shards"
            )
        if self._migration is not None:
            raise ConfigError(
                "another migration is in flight; cut it over or abort it "
                "first (the slot-table arithmetic is per-migration)"
            )
        if self.read_only:
            raise ConfigError("cannot migrate a frozen store")
        # A new migration snapshots raw engine scans, so finish any
        # deferred cleanup first — leftover moved keys on an old engine
        # must not leak into a snapshot.
        while self._cleanup_backlog:
            self.cleanup_step(4096)
        owned = [slot for slot, engine in enumerate(self._slots) if engine == shard_index]
        if not owned:
            raise ConfigError(f"engine {shard_index} owns no routing slot")
        return owned


class ShardMigration:
    """Copy-then-cutover state machine for one live shard move.

    Lifecycle::

        migration = store.begin_split(0, factory)
        while migration.copy_step(batch):            # interleave writes
            ...                                      #   freely here
        migration.cutover()                          # or .abort() on failure

    Between ``begin`` and ``cutover`` the source engine remains the
    owner: reads route to it and writes land on it, with writes into the
    moving key range *also* recorded as deltas.  ``copy_step`` streams
    the begin-time snapshot to the target in batches; ``cutover`` drains
    the remaining snapshot, replays the delta log until it is empty,
    re-points the routing slot, and removes moved keys from the source
    — so at every instant each key has exactly one serving owner and no
    write is lost.  Source values are read with ``snapshot_read_many``:
    committed, with no admissions and no staleness consumption.
    """

    def __init__(
        self,
        store: ShardedKVStore,
        source_index: int,
        target: KVStore,
        moving_slot: int,
    ) -> None:
        self.store = store
        self.source_index = source_index
        self.target = target
        self.moving_slot = moving_slot
        self.done = False
        # Begin-time snapshot of the moving key set; values are read
        # lazily so the copy sees current data and the delta log covers
        # everything written after this instant.
        self._source = store.shards[source_index]
        self._snapshot_keys: list[int] = [
            key for key, _ in self._source.scan() if self._moves(key)
        ]
        self._cursor = 0
        self._delta: set[int] = set()
        self._moved_keys: set[int] = set()
        self.keys_copied = 0
        self.delta_replayed = 0

    def _moves(self, key: int) -> bool:
        return self.store.slot_of(key) == self.moving_slot

    def note_write(self, key: int) -> None:
        """Dual-log a source write that falls in the moving range."""
        if self._moves(key):
            self._delta.add(key)

    @property
    def remaining(self) -> int:
        """Snapshot keys not yet copied."""
        return len(self._snapshot_keys) - self._cursor

    def _copy(self, keys: list[int]) -> int:
        """Bring the target up to the source's current values for ``keys``.

        Keys the source no longer holds are deleted from the target (a
        no-op for snapshot keys it never received).  Returns the number
        of values written.
        """
        values = self._source.snapshot_read_many(keys)
        put_keys, put_values = [], []
        for key, value in zip(keys, values):
            if value is None:
                if key in self._moved_keys:
                    self.target.delete(key)
                    self._moved_keys.discard(key)
            else:
                put_keys.append(key)
                put_values.append(value)
        if put_keys:
            self.target.multi_put(put_keys, put_values)
            self._moved_keys.update(put_keys)
        return len(put_keys)

    def copy_step(self, batch: int = 1024) -> int:
        """Copy up to ``batch`` snapshot keys; returns the remaining count.

        Keys deleted since the snapshot read back ``None`` and are
        skipped — the delta log carries the delete to cutover.
        """
        if self.done:
            raise ConfigError("migration already cut over")
        chunk = self._snapshot_keys[self._cursor:self._cursor + batch]
        if chunk:
            self.keys_copied += self._copy(chunk)
            self._cursor += len(chunk)
        return self.remaining

    def abort(self) -> None:
        """Cancel the migration and unblock the store.

        The source engine never stopped owning the moving range, so
        aborting is purely local: the half-filled target is closed and
        discarded, the dual-logging hook is removed, and the store can
        start a new migration.  Call this when a ``copy_step`` fails
        (target disk full, factory misconfiguration) — an abandoned
        migration would otherwise keep accumulating deltas and block
        every future migration.
        """
        if self.done:
            raise ConfigError("migration already cut over")
        self.done = True
        self.store._migration = None
        self._delta.clear()
        self.target.close()

    def cutover(self, batch: int = 1024, defer_cleanup: bool = False) -> int:
        """Finish the move atomically; returns the target's engine index.

        Drains the snapshot, replays the delta log until it is empty
        (each pass re-reads current values, so the target ends
        bit-identical to the source for every moved key), flips the
        routing slot to the target, and deletes the moved keys from
        the source.

        With ``defer_cleanup=True`` the source-side deletes are queued on
        the store instead of executed here: the routing flip makes the
        moved keys unreachable immediately, and the store's
        :meth:`ShardedKVStore.cleanup_step` drains the physical deletes
        in bounded batches.  A live rescale uses this so the cutover tick
        costs O(delta), not O(moved keys) — the synchronous delete loop
        is exactly the multi-millisecond stall a latency SLO notices.
        """
        if self.done:
            raise ConfigError("migration already cut over")
        while self.remaining:
            self.copy_step(batch)
        while self._delta:
            keys = sorted(self._delta)
            self._delta.clear()
            self._copy(keys)
            self.delta_replayed += len(keys)
        index = self._install(defer_cleanup)
        self.done = True
        self.store._migration = None
        return index

    def _install(self, defer_cleanup: bool) -> int:
        store = self.store
        target_index = len(store.shards)
        store.shards.append(self.target)
        store._shard_ops.append(0)
        store.num_shards = len(store.shards)
        store._slots[self.moving_slot] = target_index
        if defer_cleanup:
            backlog = store._cleanup_backlog.setdefault(self.source_index, set())
            backlog.update(self._moved_keys)
        else:
            for key in sorted(self._moved_keys):
                self._source.delete(key)
        return target_index
