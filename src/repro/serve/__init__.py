"""Online embedding serving: the read path the paper's system trains for.

This package turns any :class:`~repro.kv.api.KVStore` (including a
:class:`~repro.kv.sharded.ShardedKVStore`) plus an exported model into an
online service measured against latency SLOs:

* :mod:`repro.serve.request` — requests and the priority-lane queue;
* :mod:`repro.serve.batcher` — the micro-batching policy and
  duplicate-key coalescing (one hot key in flight serves all waiters);
* :mod:`repro.serve.cache` — the hot-key admission cache with per-tier
  hit accounting and bounded reuse;
* :mod:`repro.serve.server` — :class:`EmbeddingServer`: restores a
  checkpointed store + servable model and answers lookup/score requests,
  honoring MLKV's staleness bound on reads (with stall-handler refresh
  settlement);
* :mod:`repro.serve.loadgen` — open-loop (Poisson) and closed-loop
  (think-time) load over the simulated clock, zipfian/uniform/YCSB keys,
  plus :class:`ChaosInjector` — scheduled replica kills / slow shards /
  revivals fired mid-run by the serving loop;
* :mod:`repro.serve.telemetry` — p50/p95/p99 latency histograms,
  batch-size and queue-depth distributions, throughput-vs-SLO reports;
* :mod:`repro.serve.loop` — :class:`ServingLoop`, the one
  discrete-event serving loop binding it all together.  It always runs
  over a list of tenants (``run(arrivals)`` is the implicit one-tenant
  case), with priority-aware batch cutoff and the training look-ahead
  engine reused as a serving prefetcher;
* :mod:`repro.serve.tenancy` — what is about a tenant (model +
  table-set + SLO class): its spec and runtime state, per-tenant key
  namespacing, and token-bucket + queue-depth admission control;
* :mod:`repro.serve.autoscale` — the telemetry-driven policy closing
  the elasticity loop: live shard splits driven between micro-batches
  under load.
"""

from repro.serve.autoscale import Autoscaler, AutoscalerConfig
from repro.serve.batcher import BatchPolicy, CoalescedBatch, MicroBatcher
from repro.serve.cache import AdmissionCache, TierCounters
from repro.serve.loadgen import (
    ChaosInjector,
    ClosedLoopArrivals,
    LoadGenerator,
    OpenLoopArrivals,
)
from repro.serve.loop import ServingLoop
from repro.serve.request import Request, RequestQueue
from repro.serve.server import EmbeddingServer, load_servable
from repro.serve.telemetry import Distribution, LatencyHistogram, ServingTelemetry
from repro.serve.tenancy import (
    Tenant,
    TenantSpec,
    TokenBucket,
    namespace_key,
    split_key,
)

__all__ = [
    "AdmissionCache",
    "Autoscaler",
    "AutoscalerConfig",
    "BatchPolicy",
    "ChaosInjector",
    "ClosedLoopArrivals",
    "CoalescedBatch",
    "Distribution",
    "EmbeddingServer",
    "LatencyHistogram",
    "LoadGenerator",
    "MicroBatcher",
    "OpenLoopArrivals",
    "Request",
    "RequestQueue",
    "ServingLoop",
    "ServingTelemetry",
    "Tenant",
    "TenantSpec",
    "TierCounters",
    "TokenBucket",
    "load_servable",
    "namespace_key",
    "split_key",
]
