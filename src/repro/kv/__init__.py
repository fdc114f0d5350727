"""Disk-based key-value storage engines.

Three engines share the :class:`~repro.kv.api.KVStore` interface:

* :mod:`repro.kv.faster` — a FASTER-like hybrid-log store (the substrate
  MLKV is built on, Section III of the paper),
* :mod:`repro.kv.lsm` — an LSM-tree store standing in for RocksDB,
* :mod:`repro.kv.btree` — a B+tree store standing in for WiredTiger.

All three persist to real files and charge simulated I/O costs to a shared
:class:`~repro.device.ssd.SSDModel`, so the Figure 7 buffer-size sweeps
exercise genuine hit/miss paths in each engine.

:mod:`repro.kv.sharded` composes any mix of them behind the one shard
router, :class:`~repro.kv.sharded.ShardedKVStore` — slot-table hash
partitioning, one batched sub-call per shard, live ``begin_split``
rescaling (copy-then-cutover under load), coordinated checkpoints — and every engine overrides
``multi_get``/``multi_put`` with genuinely batched hot paths (one index
probe of the whole batch, WAL group commits, single leaf walks).  The router's
children are plain :class:`~repro.kv.api.KVStore` objects, so the
replicated store is the same router with a different kind of child: a
factory returning an N-way :class:`~repro.kv.replicated.ReplicaGroup`
(synchronous write fan-out, reads routed to one live replica, failover
with hinted replay on revive).  Live splits, stats and checkpoint → restore
are the router's, so they work for both.
"""

from repro.kv.api import CheckpointManager, KVStore, StoreStats
from repro.kv.common.cache import ClockCache, LRUCache
from repro.kv.common.serialization import decode_vector, decode_vectors, encode_vector
from repro.kv.replicated import ReplicaGroup
from repro.kv.sharded import ShardedKVStore, ShardMigration, shard_hash

# The names above are the storage layer's public surface: the serving
# tier and the distributed trainer import *only* these (rule REP003 in
# `repro.analysis`), so engine internals can be refactored freely.
__all__ = [
    "CheckpointManager",
    "ClockCache",
    "KVStore",
    "LRUCache",
    "ReplicaGroup",
    "ShardMigration",
    "ShardedKVStore",
    "StoreStats",
    "decode_vector",
    "decode_vectors",
    "encode_vector",
    "shard_hash",
]
