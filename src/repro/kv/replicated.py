"""N-way replication as a child of the shard router.

A :class:`ReplicaGroup` is a :class:`~repro.kv.api.KVStore` made of N
independent engine instances holding the same key range.  Writes fan
out to every live replica synchronously; reads route to **one** replica,
so read throughput is unchanged by the replication factor and a failed
replica costs availability nothing — the group simply stops picking it.
A replicated, sharded store is the shard router with one group per
shard, ``ShardedKVStore(lambda shard: ReplicaGroup([...]), n)``: routing,
batched fan-out, live splits and deferred cleanup are the
router's; every replica setting and operator verb is the group's.

A group's whole state is its liveness flags and its hint ledger.
Fan-out is synchronous, so every live replica is current: it applied
every acknowledged write and owes no hints.  Only a dead replica falls
behind, and its hint set names exactly the keys it missed (``None``
once the set overflowed).  Any live replica is therefore a sound source
for every read — routed reads, committed reads, the values a split
copies and the rows the parameter server adds deltas onto — and the
group has one read route, :meth:`~ReplicaGroup.pick_reader`.

Failure handling:

* :meth:`~ReplicaGroup.fail` marks a replica dead.  Writes continue on
  the survivors; each key written while a replica is down is recorded as
  a **hint** against it (hinted handoff).
* :meth:`~ReplicaGroup.revive` brings it back: hinted keys are re-read
  from an up-to-date peer (``snapshot_read_many`` — the committed-read
  path checkpoints restore through) and replayed onto the reviving
  replica, after which its hint set is empty and it serves reads again.
  If the hint set overflowed ``max_hints`` while it was down, the replica
  is instead rebuilt wholesale from a peer's ``scan()`` — the degenerate
  case where replaying a WAL-sized delta would cost more than
  re-shipping the image.
* :meth:`~ReplicaGroup.slow` injects per-operation latency on one
  replica (a degraded disk, a noisy neighbor); the read router prefers
  un-slowed live replicas, so a slow replica is routed around exactly
  like a dead one as long as a healthy peer exists; when every live
  replica is slowed, the least-slowed one serves and its penalty is
  paid.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from repro.errors import ConfigError, StorageError, checkpoint_fields
from repro.kv.api import CheckpointManager, KVStore, StoreStats
from repro.kv.sharded import (
    checkpoint_children,
    child_openers,
    child_relpath,
    child_type,
    merge_stats,
    read_manifest,
    record_count,
    shared_clock,
    shared_ssd,
    sum_read_counts,
    tightest_staleness_bound,
    write_manifest,
)
from repro.obs.trace import span as obs_span

#: Coordinated checkpoint manifest binding every replica image plus the
#: group state (liveness, hint queues) into one unit.
_MANIFEST = "group.manifest.json"

#: Clock component chaos-injected slowness is charged to (visible in the
#: busy-time table, separate from genuine cpu/ssd work).
CHAOS_COMPONENT = "chaos"


class ReplicaGroup(KVStore, CheckpointManager):
    """One key range's replica set: N engines, liveness flags, hint queues.

    The group is the unit of fan-out and failover, and to the router
    above it just another child store.  ``alive`` and the per-replica
    hint sets are its whole state; ``clock``, as on every store, is the
    simulated clock — here the one of the device model the replicas
    share, ``None`` when they share none.

    Parameters
    ----------
    replicas:
        The engines, one per replica; independent instances (their own
        directories).
    max_hints:
        Per-replica hinted-handoff cap; beyond it a revive rebuilds the
        replica from a peer's full scan instead of replaying hints.
    directory:
        Optional base directory holding every replica's own directory.
        A group that has one writes its own manifest on
        :meth:`checkpoint` and reopens through :meth:`restore`, which is
        how a router of groups checkpoints and restores them.

    Every read routes to one live replica (:meth:`pick_reader`).
    """

    def __init__(
        self,
        replicas: Sequence[KVStore],
        max_hints: int = 100_000,
        directory: Optional[str] = None,
    ) -> None:
        if not replicas:
            raise ConfigError("a replica group needs at least one replica")
        self.replicas: list[KVStore] = list(replicas)
        self.alive: list[bool] = [True] * len(self.replicas)
        self.max_hints = max_hints
        self.directory = directory
        # Per-replica hinted-handoff sets: keys written while it was down.
        # ``None`` marks an overflowed set (full resync needed on revive).
        self._hints: list[Optional[set[int]]] = [set() for _ in self.replicas]
        self._slow_penalty: list[float] = [0.0] * len(self.replicas)
        self._cursor = 0  # round-robin start for read routing
        self.failovers = 0  # reads that skipped the preferred replica
        self.catchup_keys = 0  # keys replayed by revives
        self.resyncs = 0  # full scan-copy rebuilds

    # ------------------------------------------------------------------
    # liveness & health
    # ------------------------------------------------------------------
    @property
    def replication(self) -> int:
        """Configured replica count (live or not)."""
        return len(self.replicas)

    def live_indices(self) -> list[int]:
        """Indices of the replicas currently up, in order."""
        return [index for index, up in enumerate(self.alive) if up]

    def fail(self, replica: int) -> None:
        """Mark ``replica`` dead.

        The last live replica must survive: a revive needs a donor
        holding every acknowledged write, and only a live replica does
        (which is why :meth:`_complete_peer` can never come up empty).
        """
        if not self.alive[replica]:
            return
        if self.live_indices() == [replica]:
            raise StorageError(
                f"cannot fail replica {replica}: it is the last live replica"
            )
        self.alive[replica] = False

    def revive(self, replica: int) -> int:
        """Bring ``replica`` back; returns the number of keys replayed.

        The hinted keys — or, after hint overflow, the whole image — are
        copied from an up-to-date peer before the replica is marked live,
        so it rejoins holding every acknowledged write.
        """
        if self.alive[replica]:
            return 0
        hints = self._hints[replica]
        if hints == set():
            self.alive[replica] = True
            return 0  # already converged: no donor needed
        donor = self._complete_peer(exclude=replica)
        replayed = 0
        if hints is None:
            # Hint overflow: rebuild from a peer's full image (batched —
            # this path exists for large images, so it must use the
            # engines' amortized write path), then drop records the
            # group deleted while this replica was down.
            target = self.replicas[replica]
            donor_keys: set[int] = set()
            batch_keys: list[int] = []
            batch_values: list[bytes] = []
            for key, value in self.replicas[donor].scan():
                batch_keys.append(key)
                batch_values.append(value)
                donor_keys.add(key)
                replayed += 1
                if len(batch_keys) >= 1024:
                    target.multi_put(batch_keys, batch_values)
                    batch_keys, batch_values = [], []
            if batch_keys:
                target.multi_put(batch_keys, batch_values)
            for key, _ in list(target.scan()):
                if key not in donor_keys:
                    target.delete(key)
            self.resyncs += 1
        elif hints:
            keys = sorted(hints)
            values = self.replicas[donor].snapshot_read_many(keys)
            put_keys, put_values = [], []
            for key, value in zip(keys, values):
                if value is None:
                    self.replicas[replica].delete(key)
                else:
                    put_keys.append(key)
                    put_values.append(value)
            if put_keys:
                self.replicas[replica].multi_put(put_keys, put_values)
            replayed = len(keys)
        self._hints[replica] = set()
        self.alive[replica] = True
        self.catchup_keys += replayed
        return replayed

    def slow(self, replica: int, penalty_seconds: float) -> None:
        """Inject ``penalty_seconds`` of extra latency per read on one
        replica (0 clears it)."""
        if penalty_seconds < 0:
            raise ConfigError(f"penalty must be non-negative, got {penalty_seconds}")
        self._slow_penalty[replica] = penalty_seconds

    def slow_penalty(self, replica: int) -> float:
        """The injected per-read latency on ``replica`` (0 = healthy)."""
        return self._slow_penalty[replica]

    def _complete_peer(self, exclude: int) -> int:
        """The first live replica other than ``exclude``: a donor for a
        revive and the source of scans.  Every live replica holds every
        acknowledged write, and :meth:`fail` keeps one alive."""
        for index in self.live_indices():
            if index != exclude:
                return index
        raise StorageError("no live replica to read from")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def pick_reader(self) -> int:
        """One live replica, un-slowed preferred.

        Round-robin over the healthy live replicas spreads read load;
        when every live replica is slowed the least-penalized one is
        chosen (degraded service beats no service).  ``failovers``
        counts reads served while the pool was short of the configured
        replication factor — reads that routed around a dead or slowed
        replica.
        """
        live = self.live_indices()
        healthy = [index for index in live if not self._slow_penalty[index]]
        if len(healthy or live) < self.replication:
            self.failovers += 1
        if not healthy:
            return min(live, key=lambda index: self._slow_penalty[index])
        choice = healthy[self._cursor % len(healthy)]
        self._cursor += 1
        return choice

    def _read_replica(self) -> int:
        """Route one read (:meth:`pick_reader`), paying its injected latency."""
        choice = self.pick_reader()
        penalty = self._slow_penalty[choice]
        if penalty:
            clock = self.replicas[choice].clock
            if clock is not None:
                clock.advance(penalty, component=CHAOS_COMPONENT)
        return choice

    # ------------------------------------------------------------------
    # fan-out writes (the sanitizer patches these three by name, so the
    # KVStore write methods below must call them, not alias them)
    # ------------------------------------------------------------------
    def fanout_put(self, key: int, value: bytes) -> None:
        """Write to every live replica, hinting the write for down ones."""
        for index, replica in enumerate(self.replicas):
            if self.alive[index]:
                replica.put(key, value)
            else:
                self._hint(index, key)

    def fanout_delete(self, key: int) -> bool:
        """Delete on every live replica; returns whether any held the key."""
        existed = False
        for index, replica in enumerate(self.replicas):
            if self.alive[index]:
                existed = replica.delete(key) or existed
            else:
                self._hint(index, key)
        return existed

    def fanout_multi_put(self, keys: list, values: list) -> None:
        """Batched fan-out write with per-replica hinting."""
        for index, replica in enumerate(self.replicas):
            if self.alive[index]:
                replica.multi_put(keys, values)
            else:
                for key in keys:
                    self._hint(index, key)

    def _hint(self, replica: int, key: int) -> None:
        hints = self._hints[replica]
        if hints is None:
            return  # already overflowed: revive will full-resync
        hints.add(key)
        if len(hints) > self.max_hints:
            self._hints[replica] = None

    def hints_outstanding(self, replica: int) -> int:
        """Hinted keys queued for ``replica`` (-1 after overflow)."""
        hints = self._hints[replica]
        return -1 if hints is None else len(hints)

    # ------------------------------------------------------------------
    # KVStore interface — reads (routed to one replica)
    # ------------------------------------------------------------------
    def _read(self, op: str, keys: list) -> list:
        """One batched read ``op``, served by one routed replica."""
        replica = self._read_replica()
        reader = self.replicas[replica]
        with obs_span("kv.replica_read", clock=reader.clock, replica=replica, keys=len(keys)):
            return getattr(reader, op)(keys)

    def get(self, key: int) -> Optional[bytes]:
        """Read from one routed replica."""
        return self.replicas[self._read_replica()].get(key)

    def snapshot_read(self, key: int) -> Optional[bytes]:
        """Committed read (no staleness consumption), routed like ``get``."""
        return self.replicas[self._read_replica()].snapshot_read(key)

    def multi_get(self, keys) -> list:
        """One batched read served by one replica."""
        return self._read("multi_get", self._normalize_keys(keys))

    def snapshot_read_many(self, keys) -> list:
        """Batched committed reads, routed like ``multi_get``."""
        return self._read("snapshot_read_many", self._normalize_keys(keys))

    def lookahead(self, keys) -> int:
        """Stage a prefetch batch on every live replica.

        Any live replica may serve the reads the batch is staged for, so
        each one stages it; returns what the first live replica staged.
        A prefetch is not a read: it pays no injected latency and counts
        no failover.
        """
        keys = self._normalize_keys(keys)
        staged = [self.replicas[index].lookahead(keys) for index in self.live_indices()]
        return staged[0]

    def lookahead_capacity(self, value_bytes: int) -> int:
        """The smallest replica's: every live one stages each prefetch batch."""
        return min(replica.lookahead_capacity(value_bytes) for replica in self.replicas)

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """All live records, once each, from one live replica."""
        yield from self.replicas[self._complete_peer(exclude=-1)].scan()

    def __len__(self) -> int:
        """Live records, counted on one live replica."""
        return record_count(self.replicas[self._complete_peer(exclude=-1)])

    # ------------------------------------------------------------------
    # KVStore interface — writes (synchronous fan-out)
    # ------------------------------------------------------------------
    def put(self, key: int, value: bytes) -> None:
        """Fan-out write to every live replica."""
        self._check_writable()
        self.fanout_put(key, value)

    def delete(self, key: int) -> bool:
        """Fan-out delete; returns whether any replica held the key."""
        self._check_writable()
        return self.fanout_delete(key)

    def multi_put(self, keys, values) -> None:
        """Batched fan-out write, hinted against dead replicas."""
        self._check_writable()
        keys, values = self._normalize_pairs(keys, values)
        with obs_span(
            "kv.replica_write", live_replicas=len(self.live_indices()), keys=len(keys)
        ):
            self.fanout_multi_put(keys, values)

    # ------------------------------------------------------------------
    # the store contract (computed from the replicas), stats, lifecycle
    # ------------------------------------------------------------------
    @property
    def ssd(self):
        """The device model every replica shares, or ``None``."""
        return shared_ssd(self.replicas)

    @property
    def clock(self):
        """The simulated clock of the device model every replica shares, or
        ``None``: what a checkpoint upload or a served batch is charged to."""
        return shared_clock(self.replicas)

    @property
    def staleness_bound(self):
        """Tightest replica bound; ``None`` unless every replica has one."""
        return tightest_staleness_bound(self.replicas)

    def set_stall_handler(self, handler) -> None:
        """Install a stall callback on every replica engine."""
        for replica in self.replicas:
            replica.set_stall_handler(handler)

    @property
    def stats(self) -> StoreStats:
        """Counters summed over every replica, plus replication health.

        Reads touch one replica and writes touch all live replicas, so
        ``puts`` counts fan-out copies (the real work done) while
        ``gets``/``hits``/``misses`` reflect the single routed read
        path.  ``extra`` carries the hinted keys outstanding per replica
        (-1 after overflow), failover and catch-up counts and injected
        penalties.
        """
        total = merge_stats(replica.stats for replica in self.replicas)
        indices = range(self.replication)
        total.extra.update(
            hints_outstanding=[self.hints_outstanding(index) for index in indices],
            slow_penalties=[self.slow_penalty(index) for index in indices],
            failovers=self.failovers,
            catchup_keys=self.catchup_keys,
        )
        return total

    def read_counts(self) -> tuple[int, int]:
        """Hits and misses summed over the replicas (no merged snapshot)."""
        return sum_read_counts(self.replicas)

    def freeze(self) -> "ReplicaGroup":
        """Freeze every replica and the group itself."""
        for replica in self.replicas:
            replica.freeze()
        self.read_only = True
        return self

    def close(self) -> None:
        """Close every replica."""
        for replica in self.replicas:
            replica.close()

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Checkpoint every replica; bind them when the group has a directory.

        Each replica engine persists its own crash-consistent image
        first; the group manifest is written atomically last.  It holds
        what a restore cannot rediscover from the replica images: replica
        locations and classes, the hint setting, liveness flags and the
        hinted-handoff queues — so a revive after restore replays exactly
        the keys the live run owed the dead replica (``None`` marks an
        overflowed queue).
        """
        checkpoint_children(self.replicas)
        if self.directory is None:
            return
        base = self.directory
        write_manifest(base, _MANIFEST, {
            "replicas": [child_relpath(replica, base) for replica in self.replicas],
            "types": [child_type(replica) for replica in self.replicas],
            "alive": list(self.alive),
            "max_hints": self.max_hints,
            "hints": [None if hints is None else sorted(hints) for hints in self._hints],
        })

    @classmethod
    def restore(
        cls,
        directory: str,
        factory: Optional[Callable[[int, str], KVStore]] = None,
        **kwargs,
    ) -> "ReplicaGroup":
        """Reopen a group from the manifest its own :meth:`checkpoint` wrote.

        ``factory(replica_index, replica_directory)`` rebuilds one
        replica; otherwise each recorded class's ``restore`` is called
        with ``kwargs`` forwarded.  Group state comes back as
        checkpointed.  Older images may also record a read policy, a
        divergence bound or version clocks, which are not read, and may
        record a live replica that still owes hints (one revived without
        replaying them): it comes back dead, and its recorded hints
        replay on the next :meth:`revive`.
        """
        path, manifest = read_manifest(directory, _MANIFEST)
        with checkpoint_fields(path):
            openers = child_openers(
                directory, manifest["replicas"], manifest["types"], factory, **kwargs
            )
            max_hints = int(manifest["max_hints"])
        group = cls(
            [opener(index) for index, opener in enumerate(openers)],
            max_hints=max_hints,
            directory=directory,
        )
        with checkpoint_fields(path):
            alive, hints = manifest["alive"], manifest["hints"]
            if not len(alive) == len(hints) == len(openers):
                raise ValueError(f"group state does not describe {len(openers)} replicas")
            group._hints = [None if keys is None else set(keys) for keys in hints]
            group.alive = [
                bool(up) and owed == set() for up, owed in zip(alive, group._hints)
            ]
        return group
