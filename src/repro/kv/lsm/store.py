"""The LSM key-value store assembled from WAL, memtable, runs, compaction.

The memory budget is split between the memtable (write buffer) and the
block cache (read buffer), mirroring RocksDB's ``write_buffer_size`` +
``block_cache`` arrangement.  All flush/compaction I/O is charged as
background sequential transfers; point-read block misses are blocking
random reads — the same asymmetry that shapes Figure 7.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional

from repro.device.clock import SimClock
from repro.device.ssd import SSDModel
from repro.errors import checkpoint_fields, load_checkpoint_json, write_checkpoint_json
from repro.kv.api import CheckpointManager, KVStore, StoreStats
from repro.kv.common.cache import LRUCache
from repro.kv.lsm.compaction import LeveledPolicy, merge_runs
from repro.kv.lsm.memtable import MemTable
from repro.kv.lsm.sstable import DEFAULT_BLOCK_BYTES, SSTable
from repro.kv.lsm.wal import WriteAheadLog
from repro.obs.trace import span as obs_span

DEFAULT_OP_CPU_SECONDS = 1.1e-6

_MANIFEST = "lsm.manifest.json"


class LsmKV(KVStore, CheckpointManager):
    """Leveled LSM-tree store (RocksDB stand-in).

    Parameters
    ----------
    directory:
        Workspace for WAL, runs and the manifest.
    ssd:
        Shared SSD cost model (private one created when omitted).
    memory_budget_bytes:
        Total memory; 25% memtable, 75% block cache (RocksDB-ish split
        for read-mostly workloads).
    block_bytes:
        SSTable block size.
    op_cpu_seconds:
        Simulated CPU per operation (slightly above FASTER's: the read
        path probes multiple runs).
    """

    def __init__(
        self,
        directory: str,
        ssd: Optional[SSDModel] = None,
        memory_budget_bytes: int = 1 << 22,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        policy: Optional[LeveledPolicy] = None,
        op_cpu_seconds: float = DEFAULT_OP_CPU_SECONDS,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        if ssd is None:
            ssd = SSDModel(SimClock())
        self.ssd = ssd
        self.clock = ssd.clock
        self.block_bytes = block_bytes
        self.memtable_budget = max(4 << 10, memory_budget_bytes // 4)
        cache_entries = max(8, (memory_budget_bytes - self.memtable_budget) // block_bytes)
        self.block_cache = LRUCache(cache_entries)
        self.policy = policy or LeveledPolicy(base_level_bytes=4 * self.memtable_budget)
        self.op_cpu_seconds = op_cpu_seconds

        self.wal = WriteAheadLog(os.path.join(directory, "lsm.wal"), ssd)
        self.memtable = MemTable()
        self.l0_runs: list[SSTable] = []  # newest first
        self.levels: dict[int, SSTable] = {}  # level -> single run
        self._next_file_id = 0
        self._stats = StoreStats(extra={"flushes": 0, "compactions": 0})
        self._closed = False
        self._maybe_recover()

    # ------------------------------------------------------------------
    # KVStore interface
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        """Live counter block for this engine."""
        return self._stats

    def put(self, key: int, value: bytes) -> None:
        """Write to the WAL then the memtable; may trigger a flush."""
        self._check_writable()
        self._charge_cpu()
        self._stats.puts += 1
        self.wal.append_put(key, value)
        self.memtable.put(key, value)
        self._maybe_flush()

    def delete(self, key: int) -> bool:
        """Record a tombstone; returns whether the key was live."""
        self._check_writable()
        self._charge_cpu()
        self._stats.deletes += 1
        # Existence probe through the internal lookup: user-facing get/hit/
        # miss counters and the per-op CPU charge stay untouched (the
        # probe still pays real device I/O when it has to go to disk).
        found, value, _ = self._lookup(key, count_cache=False)
        existed = found and value is not None
        self.wal.append_delete(key)
        self.memtable.delete(key)
        self._maybe_flush()
        return existed

    def get(self, key: int) -> Optional[bytes]:
        """Memtable first, then L0 runs newest-first, then leveled runs."""
        self._charge_cpu()
        self._stats.gets += 1
        found, value, from_memory = self._lookup(key)
        # Per-get accounting mirrors FASTER: a live value served without
        # touching the SSD is a hit; disk-resident values, tombstones and
        # absent keys are misses.
        if found and value is not None and from_memory:
            self._stats.hits += 1
        else:
            self._stats.misses += 1
        return value if found else None

    def _all_runs(self) -> list[SSTable]:
        """Runs in probe order: L0 newest-first, then the levels."""
        return self.l0_runs + [self.levels[level] for level in sorted(self.levels)]

    def _lookup(
        self, key: int, count_cache: bool = True
    ) -> tuple[bool, Optional[bytes], bool]:
        """One probe of memtable then runs; no stats or CPU accounting.

        Returns ``(found, value, from_memory)`` where ``value`` is ``None``
        for tombstones and ``from_memory`` says whether the probe finished
        without any disk read.  ``count_cache=False`` additionally leaves
        the block-cache hit/miss counters (and recency) untouched — the
        internal existence probe of :meth:`delete` uses that.
        """
        found, value = self.memtable.get(key)
        if found:
            return True, value, True
        touched_disk = False
        for run in self._all_runs():
            found, value, from_cache = self._search_run(run, key, count_cache)
            touched_disk = touched_disk or not from_cache
            if found:
                return True, value, not touched_disk
        return False, None, not touched_disk

    def _search_run(
        self, run: SSTable, key: int, count_cache: bool = True
    ) -> tuple[bool, Optional[bytes], bool]:
        """Probe one run; returns ``(found, value, from_cache)``.

        ``from_cache`` is ``True`` when no disk read was needed (including
        the bloom/fence-pruned case where no block was touched at all).
        """
        if not run.may_contain(key):
            return False, None, True
        block_no = run.block_for(key)
        if block_no is None:
            return False, None, True
        block, from_cache = self._load_block(run, block_no, count_cache)
        found, value = SSTable.search_block(block, key)
        return found, value, from_cache

    def _load_block(
        self, run: SSTable, block_no: int, count_cache: bool = True
    ) -> tuple[bytes, bool]:
        """Fetch an SSTable block through the cache.

        Returns ``(block, from_cache)``.  The block cache keeps its own
        hit/miss counters (skipped when ``count_cache=False``); operation
        level hit/miss accounting happens in the callers.
        """
        cache_key = (run.path, block_no)
        if count_cache:
            block = self.block_cache.get(cache_key)
        else:
            block = self.block_cache.peek(cache_key)
        if block is None:
            block = run.read_block(block_no, self.ssd, blocking=True)
            self.block_cache.put(cache_key, block)
            return block, False
        return block, True

    def multi_get(self, keys) -> list:
        """Batched get: one memtable pass, then run probes grouped by block.

        Unresolved keys walk the run hierarchy newest-first exactly like
        the per-key path, but within each run they are grouped by SSTable
        block so every needed block is fetched at most once per batch —
        duplicate keys and co-located keys share the read — and the fixed
        per-op CPU cost is charged once per batch.
        """
        keys = self._normalize_keys(keys)
        with obs_span("kv.multi_get", clock=self.clock, engine="lsm", keys=len(keys)):
            return self._multi_get_batched(keys)

    def _multi_get_batched(self, keys: list) -> list:
        self._charge_batch_cpu(len(keys))
        self._stats.gets += len(keys)
        results: list[Optional[bytes]] = [None] * len(keys)
        unresolved: dict[int, list[int]] = {}  # key -> positions awaiting it
        for position, key in enumerate(keys):
            found, value = self.memtable.get(key)
            if found:
                if value is not None:
                    self._stats.hits += 1
                else:
                    self._stats.misses += 1  # tombstone: key is absent
                results[position] = value
            else:
                unresolved.setdefault(key, []).append(position)
        disk_touched: set[int] = set()  # keys whose probe read from disk
        for run in self._all_runs():
            if not unresolved:
                break
            by_block: dict[int, list[int]] = {}
            for key in unresolved:
                if not run.may_contain(key):
                    continue
                block_no = run.block_for(key)
                if block_no is not None:
                    by_block.setdefault(block_no, []).append(key)
            for block_no in sorted(by_block):
                block, from_cache = self._load_block(run, block_no)
                if not from_cache:
                    disk_touched.update(by_block[block_no])
                for key in by_block[block_no]:
                    found, value = SSTable.search_block(block, key)
                    if found:
                        positions = unresolved.pop(key)
                        if value is not None and key not in disk_touched:
                            self._stats.hits += len(positions)
                        else:
                            self._stats.misses += len(positions)
                        for position in positions:
                            results[position] = value
        for positions in unresolved.values():
            self._stats.misses += len(positions)
        return results

    def multi_put(self, keys, values) -> None:
        """Batched put: one WAL group commit + a single sorted memtable pass.

        Duplicates collapse to their last occurrence before touching the
        WAL or memtable, so the final state matches a sequential
        application while the write amplification does not scale with the
        duplicate count.
        """
        self._check_writable()
        keys, values = self._normalize_pairs(keys, values)
        with obs_span("kv.multi_put", clock=self.clock, engine="lsm", keys=len(keys)):
            self._charge_batch_cpu(len(keys))
            self._stats.puts += len(keys)
            last: dict[int, bytes] = {}
            for key, value in zip(keys, values):
                last[key] = value
            items = sorted(last.items())
            self.wal.append_put_batch(items)
            for key, value in items:
                self.memtable.put(key, value)
            self._maybe_flush()

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """All live records in ascending key order, merged across runs."""
        runs = self._all_runs()
        merged = merge_runs(runs, self.ssd, drop_tombstones=False) if runs else iter(())
        # Overlay the memtable (newest data) over the merged runs.
        mem = dict(self.memtable.items())
        emitted = set()
        for key, value in merged:
            if key in mem:
                continue
            emitted.add(key)
            if value is not None:
                yield key, value
        for key, value in sorted(mem.items()):
            if value is not None:
                yield key, value

    def close(self) -> None:
        """Flush the memtable and close the WAL and tables."""
        if not self._closed:
            self.flush()
            self._write_manifest()
            self.wal.close()
            self._closed = True

    # ------------------------------------------------------------------
    # flush & compaction
    # ------------------------------------------------------------------
    def _maybe_flush(self) -> None:
        if self.memtable.approximate_bytes >= self.memtable_budget:
            self.flush()

    def flush(self) -> None:
        """Flush the memtable to a new L0 run and truncate the WAL.

        Ordering is the crash-safety invariant: the new run is made
        visible in the manifest *before* the WAL covering it is
        discarded.  A crash between the two leaves both the run and the
        WAL on disk — replay is idempotent, so recovery applies the same
        mutations twice rather than losing them.
        """
        if len(self.memtable) == 0:
            return
        run = SSTable.build(
            self._new_run_path(),
            self.memtable.items(),
            self.ssd,
            block_bytes=self.block_bytes,
        )
        if run is not None:
            self.l0_runs.insert(0, run)
            self._stats.extra["flushes"] += 1
        self.memtable = MemTable(seed=self._next_file_id)
        self._write_manifest()
        self.wal.truncate()
        if self.policy.needs_l0_compaction(len(self.l0_runs)):
            self._compact_l0()

    def _compact_l0(self) -> None:
        inputs = list(self.l0_runs)
        if 1 in self.levels:
            inputs.append(self.levels[1])
        bottom = not any(level > 1 for level in self.levels)
        merged = merge_runs(inputs, self.ssd, drop_tombstones=bottom)
        new_run = SSTable.build(
            self._new_run_path(), merged, self.ssd, block_bytes=self.block_bytes
        )
        self.l0_runs = []
        if new_run is not None:
            self.levels[1] = new_run
        else:
            self.levels.pop(1, None)
        self._stats.extra["compactions"] += 1
        # Manifest first, then reclaim: a crash here strands orphan run
        # files (harmless) instead of a manifest pointing at deleted ones.
        self._write_manifest()
        for run in inputs:
            run.remove_files()
        self._cascade(1)

    def _cascade(self, level: int) -> None:
        run = self.levels.get(level)
        if run is None or not self.policy.needs_level_compaction(level, run.data_bytes):
            return
        inputs = [run]
        if level + 1 in self.levels:
            inputs.append(self.levels[level + 1])
        bottom = not any(lv > level + 1 for lv in self.levels)
        merged = merge_runs(inputs, self.ssd, drop_tombstones=bottom)
        new_run = SSTable.build(
            self._new_run_path(), merged, self.ssd, block_bytes=self.block_bytes
        )
        self.levels.pop(level, None)
        if new_run is not None:
            self.levels[level + 1] = new_run
        else:
            self.levels.pop(level + 1, None)
        self._stats.extra["compactions"] += 1
        self._write_manifest()
        for old in inputs:
            old.remove_files()
        self._cascade(level + 1)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _new_run_path(self) -> str:
        self._next_file_id += 1
        return os.path.join(self.directory, f"sst_{self._next_file_id:06d}.data")

    def _write_manifest(self) -> None:
        # Run paths are stored relative to the directory so a checkpoint
        # image restores into any location (a fresh node, a download dir).
        manifest = {
            "next_file_id": self._next_file_id,
            "l0": [os.path.basename(run.path) for run in self.l0_runs],
            "levels": {
                str(lv): os.path.basename(run.path)
                for lv, run in self.levels.items()
            },
        }
        write_checkpoint_json(os.path.join(self.directory, _MANIFEST), manifest)

    def _run_path(self, name: str) -> str:
        """Resolve a manifest entry (absolute entries predate this PR)."""
        if os.path.isabs(name):
            return name
        return os.path.join(self.directory, name)

    def _maybe_recover(self) -> None:
        manifest_path = os.path.join(self.directory, _MANIFEST)
        if os.path.exists(manifest_path):
            manifest = load_checkpoint_json(manifest_path)
            with checkpoint_fields(manifest_path):
                next_file_id = int(manifest["next_file_id"])
                l0 = [self._run_path(path) for path in manifest["l0"]]
                levels = {int(lv): self._run_path(path) for lv, path in manifest["levels"].items()}
            self._next_file_id = next_file_id
            self.l0_runs = [SSTable.open(path) for path in l0]
            self.levels = {lv: SSTable.open(path) for lv, path in levels.items()}
        # Replay any WAL entries that never reached an SSTable.
        wal_path = os.path.join(self.directory, "lsm.wal")
        if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
            for key, value in self.wal.replay():
                if value is None:
                    self.memtable.delete(key)
                else:
                    self.memtable.put(key, value)

    def checkpoint(self) -> None:
        """Make every acknowledged write durable without forcing a flush.

        The durable image of an LSM store is *runs + manifest + WAL*: the
        WAL sync persists the memtable's backing mutations, so recovery
        replays them — no tiny L0 runs are created by frequent
        checkpoints.
        """
        self.wal.sync()
        self._write_manifest()

    @classmethod
    def restore(cls, directory: str, **kwargs) -> "LsmKV":
        """Reopen from a durable image (recovery runs in ``__init__``)."""
        return cls(directory, **kwargs)

    def _charge_cpu(self) -> None:
        if self.op_cpu_seconds:
            self.clock.advance(self.op_cpu_seconds, component="cpu")
