"""The serving event loop: tenants' arrivals → queue → micro-batches → answers.

Serving runs entirely on the simulated clock (the same one the store's
SSD model charges), so the loop is a discrete-event simulation with the
exact timing a real async server would exhibit:

1. when idle, time jumps to the next arrival;
2. a batch *opens* and requests are admitted to the queue until it
   either holds ``max_batch`` requests or the oldest waiter's delay
   bound fires — exactly the two close conditions of a real
   micro-batcher (a full batch closes early; a sparse one waits out its
   timer, even if no further request ever arrives);
3. the batch is coalesced and served — one batched store read for its
   unique keys — and every waiter completes at the batch's finish time;
4. completions feed the telemetry (latency, batch size, queue depth)
   and, in closed-loop mode, schedule the issuing user's next request.

Arrivals are admitted in **runs** — the earliest tenant's arrivals up to
the cutoff, the next other tenant's arrival and the room left: one
``pop_due``, one queue ``extend`` — of length one for a tenant that can
shed (a shed completes back to its source and may schedule an earlier
arrival).  A served batch is one telemetry record; ``value``,
``completed_at`` and ``on_complete`` stay per request.

There is one loop, and it always runs over a list of **tenants**
(:mod:`repro.serve.tenancy`).  ``run(arrivals)`` serves that source as
the *implicit* tenant — identity key namespace, no admission limits,
the policy's delay bound, recording straight into the loop's telemetry
— so single-tenant serving is the one-tenant case, not a second code
path.  :meth:`ServingLoop.add_tenant` registers N tenants sharing the
same store and the same micro-batches, isolated by key namespacing,
admission control at the queue's edge (token bucket + depth cap; sheds
are counted and completed back, never dropped), a priority-aware batch
cutoff (the *minimum* over waiters of their own delay bound, drained
highest priority first) and per-tenant telemetry.

Between batches — the only points simulated time advances — the loop
fires due chaos events, ticks the autoscaler
(:mod:`repro.serve.autoscale`: live shard splits while requests are
in flight) and, when the single
tenant's source exposes a key schedule (open-loop replay), advances the
training stack's :class:`~repro.core.lookahead.LookaheadEngine` as a
*serving prefetcher*: the store's look-ahead buffer is staged
``distance`` micro-batches ahead of the consumer at background
sequential cost.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.lookahead import LookaheadEngine
from repro.errors import ConfigError
from repro.obs.trace import instant as obs_instant
from repro.obs.trace import span as obs_span
from repro.serve.batcher import BatchPolicy, CoalescedBatch, MicroBatcher
from repro.serve.request import Request, RequestQueue
from repro.serve.server import EmbeddingServer
from repro.serve.telemetry import ServingTelemetry
from repro.serve.tenancy import Tenant, TenantSpec, namespace_key, split_key

#: Clock component idle waits are charged to.  Deliberately not a powered
#: component in the energy model: waiting for arrivals burns no device.
WAIT_COMPONENT = "wait"

#: Report name of the tenant ``run(arrivals)`` serves implicitly.
IMPLICIT_TENANT = "default"


class ServingLoop:
    """Drives an :class:`EmbeddingServer` under a batching policy.

    Parameters
    ----------
    server:
        The shared read path (store + cache + optional model); every
        tenant's namespaced keys resolve through it.
    policy:
        Micro-batching knobs; ``BatchPolicy(1, 0)`` is per-request
        serving.  Per-tenant ``max_delay`` overrides tighten the cutoff
        for high-SLO tenants.
    prefetch_distance:
        Micro-batches of look-ahead staging over a replayable trace
        (0 disables; ignored for sources without a key schedule).  One
        tenant only: a per-tenant key schedule does not predict a
        cross-tenant batch.
    chaos:
        Optional :class:`~repro.serve.loadgen.ChaosInjector` fired
        between batches.
    autoscaler:
        Optional :class:`~repro.serve.autoscale.Autoscaler` ticked
        between batches; it observes completed-request latencies and
        drives live rescaling against the shared store.
    """

    def __init__(
        self,
        server: EmbeddingServer,
        policy: Optional[BatchPolicy] = None,
        prefetch_distance: int = 0,
        chaos=None,
        autoscaler=None,
    ) -> None:
        self.server = server
        self.policy = policy or BatchPolicy()
        self.queue = RequestQueue()
        self.batcher = MicroBatcher(self.policy)
        self.telemetry = server.telemetry
        self.tenants: list[Tenant] = []
        self.prefetch_distance = prefetch_distance
        # Chaos events and autoscaler ticks fire as the clock passes
        # them, between batches: the loop is the only place simulated
        # time advances, so batch boundaries are the injection points a
        # real async server's event loop would have.
        self.chaos = chaos
        self.autoscaler = autoscaler

    # ------------------------------------------------------------------
    # tenancy
    # ------------------------------------------------------------------
    def add_tenant(self, spec: TenantSpec, arrivals) -> Tenant:
        """Register one tenant and its arrival source; returns its state.

        Tenants are indexed in registration order; index 0's key
        namespace is the identity.  Arrival sources speak the serving
        protocol (``peek_time`` / ``pop_due`` / ``on_complete`` /
        ``backlog``) and carry *tenant-local* keys — the loop namespaces
        them at admission and hands them back as issued.
        """
        for existing in self.tenants:
            if existing.implicit:
                raise ConfigError(
                    "this loop already serves run(arrivals) as its implicit "
                    "tenant; register tenants on a fresh loop"
                )
            if existing.spec.name == spec.name:
                raise ConfigError(f"duplicate tenant name {spec.name!r}")
        if self.tenants and self.prefetch_distance > 0:
            raise ConfigError(
                "prefetch_distance > 0 serves one tenant: a per-tenant key "
                "schedule does not predict a cross-tenant batch"
            )
        tenant = Tenant(len(self.tenants), spec, arrivals, start=self.server.clock.now)
        self.tenants.append(tenant)
        return tenant

    def tenant(self, name: str) -> Tenant:
        """Look a registered tenant up by name."""
        for candidate in self.tenants:
            if candidate.spec.name == name:
                return candidate
        raise ConfigError(f"no tenant named {name!r}")

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, arrivals=None, max_requests: Optional[int] = None) -> ServingTelemetry:
        """Serve every tenant's stream to exhaustion (or ``max_requests``).

        ``arrivals`` is the single-tenant form: the source is served as
        the implicit tenant (rebound on every call, so a run can resume
        on the same source — waiters carry over in the queue — or
        continue on a new one).  With registered tenants, call ``run()``.

        Returns the loop-wide telemetry (also ``self.telemetry``);
        per-tenant telemetries live on the :class:`Tenant` objects and
        in :meth:`report`.
        """
        if arrivals is not None:
            if not self.tenants:
                self.tenants.append(
                    Tenant(0, TenantSpec(IMPLICIT_TENANT), arrivals,
                           telemetry=self.telemetry)
                )
            elif not self.tenants[0].implicit:
                raise ConfigError(
                    "run(arrivals) serves an implicit tenant; this loop has "
                    "registered tenants — call run()"
                )
            self.tenants[0].arrivals = arrivals
        if not self.tenants:
            raise ConfigError("add at least one tenant (or pass arrivals) before run()")
        clock = self.server.clock
        tenants = self.tenants
        autoscaler = self.autoscaler
        sources = [tenant.arrivals for tenant in tenants]
        registered = not tenants[0].implicit
        prefetcher = self._make_prefetcher()
        served = 0
        batch_index = 0
        while max_requests is None or served < max_requests:
            opened_at = self._open_batch(clock)
            if opened_at is None:
                break
            service_start = self._gather(clock, opened_at)
            self._advance_to(clock, service_start)
            if self.chaos is not None:
                self.chaos.fire_due(clock.now, self.server.store, self.telemetry)
            if autoscaler is not None:
                autoscaler.tick(clock.now, queue_depth=len(self.queue))
            depth = len(self.queue) + sum(source.backlog(clock.now) for source in sources)
            if prefetcher is not None:
                prefetcher.advance(batch_index)
            with obs_span(
                "serve.batch",
                clock=clock,
                batch=batch_index,
                depth=depth,
                tenants=len(tenants),
            ):
                batch = self.batcher.form(self.queue)
                self._serve(batch)
            completed_at = clock.now
            self._record(batch.requests, completed_at)
            if registered:
                for request in batch.requests:
                    request.completed_at = completed_at
                    # The source gets back the key it issued.
                    request.key = split_key(request.key)[1]
                    sources[request.tenant].on_complete(request, completed_at)
            else:
                on_complete = sources[0].on_complete
                for request in batch.requests:
                    request.completed_at = completed_at
                    on_complete(request, completed_at)
            self.telemetry.record_batch(batch.size, depth)
            served += batch.size
            batch_index += 1
        if self.chaos is not None:
            # Settle events that came due by the final instant; anything
            # still pending is scheduled beyond the run and must show up
            # as unfired in the report, not silently vanish.
            self.chaos.fire_due(clock.now, self.server.store, self.telemetry)
        return self.telemetry

    # ------------------------------------------------------------------
    def _record(self, requests: list[Request], completed_at: float) -> None:
        """One telemetry record for a served batch, loop-wide and per tenant."""
        arrivals = [request.arrival_time for request in requests]
        self.telemetry.record_requests(arrivals, completed_at)
        if self.autoscaler is not None:
            self.autoscaler.observe_requests([completed_at - arrival for arrival in arrivals])
        if self.tenants[0].implicit:  # its telemetry is the loop's own
            self.tenants[0].queued -= len(requests)
            return
        by_tenant: dict[int, list[float]] = {}
        for request in requests:
            by_tenant.setdefault(request.tenant, []).append(request.arrival_time)
        for index, mine in by_tenant.items():
            self.tenants[index].queued -= len(mine)
            self.tenants[index].telemetry.record_requests(mine, completed_at)

    def _next_run(self) -> tuple[Optional[Tenant], float, float]:
        """``(tenant, first, bound)``: who holds the earliest pending
        arrival (at ``first``; an equal instant goes to the lower index),
        and the last instant up to which its arrivals precede every
        other tenant's.  ``(None, inf, inf)`` when all are drained."""
        best, first, bound = None, math.inf, math.inf
        for tenant in self.tenants:
            time = tenant.arrivals.peek_time()
            if time is None:
                continue
            if time < first:
                # Lower indices win a tie; the old leader is their earliest.
                if best is not None:
                    bound = math.nextafter(first, -math.inf)
                best, first = tenant, time
            elif time < bound:
                bound = time
        return best, first, bound

    def _open_batch(self, clock) -> Optional[float]:
        """Admit the first (non-shed) waiter; returns the batch-open time
        or ``None`` when every stream is exhausted and the queue drained."""
        while len(self.queue) == 0:
            tenant, first, _ = self._next_run()
            if tenant is None:
                return None
            self._advance_to(clock, first)
            self._admit_run(tenant, first, 1)
        return clock.now

    def _gather(self, clock, opened_at: float) -> float:
        """Admit arrivals until the batch closes; returns service start.

        The batch closes when it fills (``max_batch`` waiters) or at the
        cutoff — the *minimum* over current waiters of ``arrival + own
        delay bound`` — whichever is earlier.  A waiter carried over from
        the previous batch anchors the timer at its own arrival, so it
        never pays a fresh delay on top of the service time it already
        waited out (an overdue cutoff is clamped to ``opened_at``); one
        high-SLO waiter with a tight bound preempts the longer cutoff a
        best-effort batch would wait out, and a mid-gather high-SLO
        arrival *pulls the cutoff in* (a run's first arrival sets the
        cutoff for the rest of it: they are due later).

        Once the launch instant is fixed, every arrival that landed **at
        or before it** is admitted too, full batch or not.  Under backlog
        this is what makes priority real (a fresh high-SLO arrival rides
        this batch instead of waiting in its source behind thousands of
        best-effort ones), what a depth cap sheds against, and why
        ``queue_high_water`` is the true high-water mark.  Later arrivals
        stay in their source for the next batch.
        """
        queue, policy, due = self.queue, self.policy, self.batcher.deadline
        deadline = max(opened_at, min(due(waiter) for waiter in queue))
        service_start = opened_at
        while len(queue) < policy.max_batch:
            tenant, first, bound = self._next_run()
            if first > deadline:
                service_start = deadline
                break
            delay = policy.max_delay if tenant.spec.max_delay is None else tenant.spec.max_delay
            cutoff = max(opened_at, min(deadline, first + delay))
            run = self._admit_run(tenant, min(cutoff, bound), policy.max_batch - len(queue))
            if run:
                deadline = cutoff
                service_start = max(service_start, run[-1].arrival_time)
        while True:
            tenant, first, bound = self._next_run()
            if first > service_start:
                return service_start
            self._admit_run(tenant, min(service_start, bound), None)

    def _admit_run(self, tenant: Tenant, until: float, limit: Optional[int]) -> list[Request]:
        """Pop one run and admit it at the queue's edge; returns the
        requests queued.  Sheds are counted, and still completed back to
        their source (``on_complete`` at the arrival instant) so
        closed-loop tenants keep issuing — shedding degrades a tenant, it
        must not wedge it — hence one arrival at a time for a tenant that
        can shed."""
        spec = tenant.spec
        can_shed = tenant.bucket is not None or spec.shed_depth is not None
        run = tenant.arrivals.pop_due(until, 1 if can_shed else limit)
        if tenant.bucket is not None and not tenant.bucket.admit(run[0].arrival_time):
            tenant.shed_rate += 1
            reason = "rate"
        elif spec.shed_depth is not None and tenant.queued >= spec.shed_depth:
            tenant.shed_queue += 1
            reason = "depth"
        else:
            if not tenant.implicit:
                for request in run:
                    request.tenant = tenant.index
                    request.key = namespace_key(tenant.index, request.key)
                    request.max_delay = spec.max_delay
            tenant.admitted += len(run)
            tenant.queued += len(run)
            self.queue.extend(run, spec.priority)
            return run
        obs_instant("tenant.shed", clock=self.server.clock, tenant=spec.name, reason=reason)
        tenant.arrivals.on_complete(run[0], run[0].arrival_time)
        return []

    def _serve(self, batch: CoalescedBatch) -> None:
        """Answer one coalesced batch; requests of a slot share its read."""
        server = self.server
        server.charge_request_overhead(batch.size)
        vectors = server.lookup_unique(batch.unique_keys)
        for request, slot in zip(batch.requests, batch.slots):
            request.value = vectors[slot]

    def _make_prefetcher(self) -> Optional[LookaheadEngine]:
        if self.prefetch_distance <= 0:
            return None
        schedule_fn = getattr(self.tenants[0].arrivals, "key_schedule", None)
        if schedule_fn is None:
            return None
        schedule = schedule_fn(self.policy.max_batch)
        if not schedule:
            return None
        engine = LookaheadEngine(
            self.server.tables, schedule, distance=self.prefetch_distance
        )
        # Stage the first window before any batch is served: step -1 has
        # no "current" batch, so the window starts at batch 0.
        engine.advance(-1)
        return engine

    @staticmethod
    def _advance_to(clock, target: float) -> None:
        if target > clock.now:
            clock.advance(target - clock.now, component=WAIT_COMPONENT)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self, target_p99: Optional[float] = None) -> dict:
        """The SLO report: a loop-wide block plus the tenants matrix.

        The loop-wide block is the aggregate telemetry judged against
        ``target_p99`` (default: the tightest tenant target), with
        store/replication stats, coalescing,
        ``queue_high_water`` (the most admitted-but-unserved requests
        ever queued), chaos events and the autoscaler's decision log.
        ``tenants`` maps each tenant name to its own ``slo_report``
        (against its *own* ``target_p99``) extended with admission
        counters and ``slo_attainment`` — the fraction of its served
        requests inside the target.
        """
        tenants = {}
        for tenant in self.tenants:
            spec = tenant.spec
            block = tenant.telemetry.slo_report(spec.target_p99)
            block["priority"] = spec.priority
            block["offered"] = tenant.offered
            block["admitted"] = tenant.admitted
            block["shed_rate"] = tenant.shed_rate
            block["shed_queue"] = tenant.shed_queue
            block["slo_attainment"] = tenant.telemetry.latency.fraction_below(
                spec.target_p99
            )
            tenants[spec.name] = block
        if target_p99 is None:
            if not self.tenants:
                raise ConfigError("report() needs a target_p99 or a tenant to take it from")
            target_p99 = min(tenant.spec.target_p99 for tenant in self.tenants)
        report = self.telemetry.slo_report(target_p99, server=self.server)
        report["tenant_count"] = len(self.tenants)
        report["tenants"] = tenants
        batched = self.batcher.requests_batched
        report["coalesced_fraction"] = (
            self.batcher.requests_coalesced / batched if batched else 0.0
        )
        report["queue_high_water"] = self.queue.max_depth_seen
        if self.chaos is not None:
            report["chaos_events"] = list(self.chaos.fired)
            # Events scheduled past the end of the run never fired; a
            # chaos run that reports none fired measured nothing.
            report["chaos_events_unfired"] = self.chaos.pending()
        if self.autoscaler is not None:
            report["autoscaler"] = self.autoscaler.summary()
        return report
