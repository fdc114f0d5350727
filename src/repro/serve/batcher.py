"""Micro-batching policy and duplicate-key coalescing.

The batcher turns a stream of single-key lookups into the batched
``multi_get`` calls the storage engines amortize:

* **micro-batching** — a batch closes when it reaches
  ``BatchPolicy.max_batch`` requests or when the oldest waiter has been
  held ``max_delay`` seconds, whichever comes first.  Under backlog,
  batches fill instantly from the queue; at low load, the delay bound
  caps the latency cost of waiting for company.
* **duplicate-key coalescing** — requests for the same key inside one
  batch share a single store read (and, under MLKV's vector-clock
  protocol, a single Get admission): one hot key in flight serves all
  its waiters.  On a zipfian workload this is a large fraction of the
  batching win, and it is also what keeps hot keys from exhausting the
  staleness bound.  A batch is kept as columns: its unique keys in
  first-appearance order, and one *slot* per request — the index of the
  request's key among them — built in one pass with a key → slot dict.
  The loop answers request ``i`` with the read at ``slots[i]``; no list
  of waiters is built per key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs.trace import span as obs_span
from repro.serve.request import Request, RequestQueue


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the coalescing micro-batcher.

    ``max_batch=1`` with ``max_delay=0`` degenerates to per-request
    serving — the baseline the serving benchmark compares against.
    """

    max_batch: int = 256
    max_delay: float = 100e-6

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay < 0:
            raise ConfigError(f"max_delay must be >= 0, got {self.max_delay}")


@dataclass
class CoalescedBatch:
    """One micro-batch after duplicate-key coalescing.

    ``unique_keys`` holds each key once, in first-appearance order, and
    is looked up once; ``slots[i]`` is the index in ``unique_keys`` of
    ``requests[i]``'s key, so request ``i`` is answered by the read at
    that slot.
    """

    requests: list[Request]
    unique_keys: list[int]
    slots: list[int]

    @property
    def size(self) -> int:
        """Requests carried by the batch."""
        return len(self.requests)

    @property
    def coalesced(self) -> int:
        """Requests answered without their own store read."""
        return len(self.requests) - len(self.unique_keys)


class MicroBatcher:
    """Forms coalesced micro-batches from the request queue.

    The batcher itself is clock-free: the serving loop decides *when*
    (by the policy's delay bound against simulated time); the batcher
    decides *what* — FIFO draining plus key coalescing — and keeps the
    counters the telemetry reports.
    """

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self.batches_formed = 0
        self.requests_batched = 0
        self.requests_coalesced = 0

    def form(self, queue: RequestQueue) -> CoalescedBatch:
        """Drain up to ``max_batch`` requests and coalesce duplicates."""
        # The batcher is clock-free, so the span leans on the tracer's
        # default clock (or wall offsets) for its timeline.
        with obs_span("batcher.form", queued=len(queue)):
            requests = queue.take(self.policy.max_batch)
            index_of: dict[int, int] = {}
            slots = [index_of.setdefault(request.key, len(index_of)) for request in requests]
            batch = CoalescedBatch(requests, list(index_of), slots)
            self.batches_formed += 1
            self.requests_batched += batch.size
            self.requests_coalesced += batch.coalesced
            return batch

    def deadline(self, waiter: Request) -> float:
        """Latest service start ``waiter``'s delay bound allows — its own
        ``max_delay`` when its tenant set one, else the policy's.  The
        bound is per waiter, not per batch opening."""
        delay = self.policy.max_delay if waiter.max_delay is None else waiter.max_delay
        return waiter.arrival_time + delay
