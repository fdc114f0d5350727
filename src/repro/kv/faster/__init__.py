"""FASTER-like hybrid-log key-value store.

Re-implementation (in Python) of the store MLKV is built on
(Chandramouli et al., "FASTER: an embedded concurrent key-value store for
state management", VLDB 2018):

* a hash index mapping keys to logical log addresses,
* a **hybrid log** whose address space is split into an on-disk region
  ``[0, head)``, an in-memory read-only region ``[head, read_only)`` and an
  in-memory mutable region ``[read_only, tail]``,
* in-place updates in the mutable region, read-copy-update appends
  otherwise, page flush + eviction as the tail advances,
* fuzzy checkpointing and recovery.

Every record carries the 64-bit lock word of Figure 5(a); plain FASTER
uses its locked / replaced / generation fields, and MLKV (in
:mod:`repro.core`) steals the remaining 32 bits for staleness.
"""

from repro.kv.faster.record import RecordWord, RECORD_HEADER_BYTES
from repro.kv.faster.hybridlog import HybridLog
from repro.kv.faster.store import FasterKV

__all__ = [
    "RecordWord",
    "RECORD_HEADER_BYTES",
    "HybridLog",
    "FasterKV",
]
