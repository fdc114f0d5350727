"""MLKV reproduction (He et al., ICDE 2025).

Scaling up large embedding-model training with disk-based key-value
storage: bounded staleness consistency + look-ahead prefetching over a
FASTER-like hybrid-log store, with LSM-tree and B+tree baselines, three
task-specific computation layers (DLRM, KGE, GNN), synthetic workload
generators, and a benchmark harness regenerating every table and figure
of the paper's evaluation.

Quick start::

    import repro.core as MLKV
    model, emb_tables = MLKV.open("my_model", dim=16, staleness_bound=4)
    vectors = emb_tables.get(keys)
    ...
    emb_tables.put(keys, updated_vectors)
"""

__version__ = "1.0.0"

from repro import core, data, device, kv, models, nn, serve, train  # noqa: F401
from repro.errors import (  # noqa: F401
    CheckpointError,
    ConfigError,
    ReproError,
    ServingError,
    StalenessViolation,
    StorageError,
)
from repro import _heap

_heap.keep_freed_heap_resident()
