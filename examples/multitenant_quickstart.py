"""Quickstart: two tenants, one flash crowd, one live shard split.

Boots a sharded store shared by two tenants — ``interactive`` (steady
high-priority recommendation traffic with a tight SLO) and ``batch``
(best-effort analytics traffic that takes a 40x flash crowd mid-run) —
and drives both streams through one :class:`ServingLoop`.  The
flash crowd is shed at *batch*'s admission edge while *interactive*'s
SLO holds, and the autoscaler reacts to the latency breach by splitting
the hottest shard live; its decision log prints so the split is visible.

This is also the CI-adjacent smoke behind ``make serve-mt-smoke``: it
exits non-zero with a one-line reason if isolation breaks, the split
never happens, or any request is lost.

Run:  python examples/multitenant_quickstart.py
"""

import sys
import tempfile

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.data.arrivals import FlashCrowdProcess, PoissonProcess
from repro.device import SimClock, SSDModel
from repro.kv import ShardedKVStore
from repro.kv.common.serialization import encode_vector
from repro.serve import (
    Autoscaler,
    AutoscalerConfig,
    BatchPolicy,
    EmbeddingServer,
    LoadGenerator,
    ServingLoop,
    TenantSpec,
    namespace_key,
)

ITEMS = 2_000  # keys per tenant namespace
DIM = 8
SEED = 21


def fail(reason: str) -> int:
    """One-line, greppable failure verdict (the cause must be the last
    log line, not a traceback)."""
    print(f"multitenant quickstart FAILED: {reason}")
    return 1


def build_cluster():
    """One sharded store, one server, one autoscaler, one cluster."""
    clock = SimClock()
    ssd = SSDModel(clock)

    def factory(index):
        return MLKV(tempfile.mkdtemp(prefix=f"mt-qs-shard{index}-"),
                    ssd=ssd, memory_budget_bytes=1 << 22)

    store = ShardedKVStore(factory, 2)
    tables = EmbeddingTables(store, DIM, seed=SEED, cache_entries=0)
    for tenant in range(2):
        keys = [namespace_key(tenant, key) for key in range(ITEMS)]
        store.multi_put(
            keys, [encode_vector(tables.init_vector(key)) for key in keys]
        )
    store.clock.drain()
    server = EmbeddingServer(store, dim=DIM, seed=SEED, cache_entries=1024)
    autoscaler = Autoscaler(
        store, factory,
        AutoscalerConfig(p99_threshold=150e-6, depth_threshold=128,
                         check_interval=0.5e-3, min_window=64,
                         cooldown=2e-3, copy_batch=64, max_shards=3),
        telemetry=server.telemetry,
    )
    cluster = ServingLoop(
        server, BatchPolicy(max_batch=64, max_delay=150e-6),
        autoscaler=autoscaler,
    )
    return store, server, autoscaler, cluster


def main() -> int:
    store, server, autoscaler, cluster = build_cluster()
    start = server.clock.now

    # Tenant 0: steady interactive traffic, tight delay bound, high
    # priority — the tenant whose SLO must survive the flash crowd.
    interactive = cluster.add_tenant(
        TenantSpec("interactive", target_p99=0.5e-3, priority=1,
                   max_delay=25e-6),
        LoadGenerator(ITEMS, "zipfian", seed=SEED).open_loop_process(
            PoissonProcess(2e5, seed=1, start=start), 4_000
        ),
    )
    # Tenant 1: best-effort batch traffic that takes a 40x flash crowd;
    # the token bucket + depth cap shed the surge at *its* edge.
    batch = cluster.add_tenant(
        TenantSpec("batch", target_p99=10e-3, priority=0, rate_limit=2e6,
                   burst=512, shed_depth=2_048),
        LoadGenerator(ITEMS, "zipfian", seed=SEED + 1).open_loop_process(
            FlashCrowdProcess(1e5, 4e6, flash_at=start + 3e-3,
                              flash_duration=6e-3, seed=2, start=start),
            12_000,
        ),
    )

    telemetry = cluster.run()
    result = cluster.report()

    # The autoscaler's decision log — the split happening, visibly.
    print("autoscaler decisions:")
    for decision in result["autoscaler"]["decisions"]:
        fields = {k: v for k, v in decision.items()
                  if k not in ("at", "action")}
        detail = ", ".join(f"{k}={v}" for k, v in fields.items())
        print(f"  t={decision['at'] * 1e3:7.3f} ms  "
              f"{decision['action']:<14s} {detail}")

    for tenant in (interactive, batch):
        block = result["tenants"][tenant.spec.name]
        print(f"{tenant.spec.name}: offered {tenant.offered}, "
              f"admitted {tenant.admitted}, shed {tenant.shed}, "
              f"p99 {block['latency']['p99'] * 1e6:.1f} us, "
              f"SLO attainment {block['slo_attainment']:.3f}")
    print(f"cluster: {telemetry.requests_completed} served at "
          f"{result['throughput_rps']:,.0f} req/s across "
          f"{store.num_shards} shards "
          f"(coalesced {result['coalesced_fraction']:.0%})")

    # 1. Admission isolation: the flash crowd sheds batch, not interactive.
    if batch.shed == 0:
        return fail("the flash crowd was never shed at batch's edge")
    if interactive.shed != 0:
        return fail(
            f"interactive lost {interactive.shed} arrivals to "
            "admission control — isolation is broken"
        )
    # 2. The interactive SLO held through the flash crowd.
    attainment = result["tenants"]["interactive"]["slo_attainment"]
    if attainment < 0.95:
        return fail(
            f"interactive SLO attainment {attainment:.3f} < 0.95 "
            "through the flash crowd"
        )
    # 3. The autoscaler split a shard live, under load.
    if result["autoscaler"]["splits_completed"] < 1:
        return fail("the autoscaler never completed a live split")
    # 4. Zero lost requests: offered == completed + shed.
    offered = interactive.offered + batch.offered
    shed = interactive.shed + batch.shed
    if telemetry.requests_completed + shed != offered:
        return fail(
            f"request accounting broke: {telemetry.requests_completed} "
            f"completed + {shed} shed != {offered} offered"
        )
    # 5. Every namespace still resolves after the split re-routed keys.
    for tenant in range(2):
        for key in range(0, ITEMS, 499):
            if store.get(namespace_key(tenant, key)) is None:
                return fail(
                    f"tenant {tenant} key {key} unresolvable after split"
                )

    store.close()
    print("multitenant quickstart OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
