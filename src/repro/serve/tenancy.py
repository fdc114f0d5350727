"""Tenants: what N models sharing one serving loop need to stay isolated.

One production cluster rarely serves one model.  The
:class:`~repro.serve.loop.ServingLoop` always runs over a list of
tenants — each a (model, table-set, SLO class) triple sharing the same
sharded/replicated store and the same micro-batches — and this module
holds what is *about a tenant*: its spec, its runtime state, and the
two primitives that isolate it:

* **key namespacing** — tenant-local embedding ids map into disjoint
  global key ranges (``global = tenant_index << 48 | local``), so
  tenants share storage capacity and the batched read path without ever
  sharing records.  Tenant 0's range is the identity.  Cross-tenant
  duplicate-key coalescing stays correct for free: two tenants asking
  for local key 7 are two *different* global keys and two store reads;
  two requests from one tenant still share one.
* **admission control** — a per-tenant token bucket (sustained rate +
  burst) and a per-tenant queue-depth cap.  Offered load beyond either
  is *shed at arrival* (counted, never silently dropped), so one
  tenant's flash crowd degrades that tenant instead of the cluster.

The other two isolation mechanisms live where the work happens: the
priority-aware batch cutoff and drain order in the loop and its
:class:`~repro.serve.request.RequestQueue`, and the per-tenant
telemetry in :meth:`ServingLoop.report
<repro.serve.loop.ServingLoop.report>`'s tenants × SLO matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.serve.telemetry import ServingTelemetry

#: Low bits of a global key holding the tenant-local id; the tenant
#: index lives above them.  48 bits of local key space per tenant keeps
#: the global key well inside a signed 64-bit int for 2^15 tenants.
NAMESPACE_BITS = 48

_LOCAL_MASK = (1 << NAMESPACE_BITS) - 1


def namespace_key(tenant_index: int, key: int) -> int:
    """Map a tenant-local key into the tenant's global key range.

    Tenant 0's range is the identity mapping — the pass-through that
    keeps single-tenant behavior bit-identical through this layer.
    """
    if not 0 <= key <= _LOCAL_MASK:
        raise ConfigError(
            f"tenant-local key {key} outside 0..2^{NAMESPACE_BITS}-1"
        )
    return (tenant_index << NAMESPACE_BITS) | key


def split_key(global_key: int) -> tuple[int, int]:
    """Invert :func:`namespace_key`: ``(tenant_index, local_key)``."""
    return global_key >> NAMESPACE_BITS, global_key & _LOCAL_MASK


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity, SLO class, and isolation knobs.

    Parameters
    ----------
    name:
        Stable label used in reports and telemetry.
    target_p99:
        The tenant's p99 latency SLO in simulated seconds.
    priority:
        Drain order under backlog (higher drains first) — the SLO
        class's scheduling weight.
    max_delay:
        Per-tenant micro-batch delay bound; a high-SLO tenant sets this
        *below* the cluster policy's bound so its arrivals preempt the
        batch cutoff.  ``None`` inherits the cluster policy.
    rate_limit:
        Token-bucket sustained rate in requests per simulated second
        (``None`` = unlimited).
    burst:
        Token-bucket depth: arrivals a quiet tenant may fire back-to-back.
    shed_depth:
        Per-tenant cap on queued (admitted, unserved) requests; arrivals
        beyond it are shed (``None`` = unbounded).
    """

    name: str
    target_p99: float = 1e-3
    priority: int = 0
    max_delay: Optional[float] = None
    rate_limit: Optional[float] = None
    burst: int = 64
    shed_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.target_p99 <= 0:
            raise ConfigError(f"target_p99 must be positive, got {self.target_p99}")
        if self.max_delay is not None and self.max_delay < 0:
            raise ConfigError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ConfigError(f"rate_limit must be positive, got {self.rate_limit}")
        if self.burst < 1:
            raise ConfigError(f"burst must be >= 1, got {self.burst}")
        if self.shed_depth is not None and self.shed_depth < 1:
            raise ConfigError(f"shed_depth must be >= 1, got {self.shed_depth}")


class TokenBucket:
    """Deterministic token bucket over simulated time.

    Refills continuously at ``rate`` tokens per simulated second up to
    ``burst``; each admitted request spends one token.  All timestamps
    are simulated seconds, so admission decisions replay exactly.
    """

    def __init__(self, rate: float, burst: int, start: float = 0.0) -> None:
        if rate <= 0:
            raise ConfigError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ConfigError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = float(start)

    def admit(self, now: float) -> bool:
        """Spend one token at simulated time ``now`` if one is available."""
        if now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class Tenant:
    """Runtime state of one tenant inside a
    :class:`~repro.serve.loop.ServingLoop`.

    Built by :meth:`ServingLoop.add_tenant
    <repro.serve.loop.ServingLoop.add_tenant>`; holds the tenant's
    arrival source, its telemetry, its token bucket, and the
    shed/admission counters the SLO matrix reports.

    ``telemetry`` is passed only for the *implicit* tenant — the one
    ``run(arrivals)`` serves when nobody registered a tenant.  That
    tenant is the whole loop: it records into the loop's own telemetry
    (one record per batch) and its keys are the store's keys as issued
    (identity namespace, no range check).  A registered tenant owns a
    private :class:`~repro.serve.telemetry.ServingTelemetry` beside the
    loop's aggregate one.
    """

    def __init__(
        self,
        index: int,
        spec: TenantSpec,
        arrivals,
        start: float = 0.0,
        telemetry: Optional[ServingTelemetry] = None,
    ) -> None:
        self.index = index
        self.spec = spec
        self.arrivals = arrivals
        self.implicit = telemetry is not None
        self.telemetry = telemetry if telemetry is not None else ServingTelemetry()
        self.bucket = (
            TokenBucket(spec.rate_limit, spec.burst, start=start)
            if spec.rate_limit is not None
            else None
        )
        self.admitted = 0
        self.shed_rate = 0  # arrivals refused by the token bucket
        self.shed_queue = 0  # arrivals refused by the queue-depth cap
        self.queued = 0  # admitted requests not yet served

    @property
    def offered(self) -> int:
        """Total arrivals this tenant offered (admitted + shed)."""
        return self.admitted + self.shed_rate + self.shed_queue

    @property
    def shed(self) -> int:
        """Arrivals refused by admission control (rate + depth)."""
        return self.shed_rate + self.shed_queue
