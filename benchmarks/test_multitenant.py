"""Multi-tenant serving: the tenants × SLO matrix under a flash crowd.

Four tenants — four SLO classes, four arrival shapes — share one
sharded store and one micro-batching loop:

* **gold** — high-priority recommendation traffic (steady Poisson, a
  tight per-tenant batch-delay bound, sub-millisecond SLO);
* **silver-diurnal** — a compressed day/night sinusoid;
* **silver-storm** — steady Poisson whose *keys* collapse onto a hot
  set mid-run (everyone asking for the same item), stressing
  cross-tenant coalescing under namespacing;
* **bronze** — best-effort batch traffic that takes a 25x flash crowd,
  rate-limited and depth-capped so the surge degrades bronze instead
  of the cluster.

Mid-flash the autoscaler sees the latency window breach and splits the
hottest shard *live* — copy steps interleaved with serving batches,
dual-logged writes replayed at cutover — flipping the telemetry phase
so one run yields steady / during-rescale / after percentiles.

Acceptance (gated in ``BENCH_multitenant.json``):

* gold's SLO attainment holds through the flash crowd while bronze is
  shed (admission isolation + priority cutoff do their jobs);
* the split completes under live load with **zero lost requests**
  (completed + shed == offered, and every sampled key still resolves);
* ``rescale_p99_us`` — the cluster p99 *during* the copy — is reported
  and bounded.
"""

import tempfile

from _util import report
from emit import emit

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.data.arrivals import (
    DiurnalProcess,
    FlashCrowdProcess,
    HotKeyStorm,
    PoissonProcess,
)
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

_ITEMS = 4_000  # keys per tenant namespace
_DIM = 16
_SEED = 7
_SLO_GOLD = 0.5e-3
_TENANT_COUNT = 4


def _build_cluster():
    clock = SimClock()
    ssd = SSDModel(clock)
    built = [0]

    def factory(index):
        built[0] += 1
        return MLKV(tempfile.mkdtemp(prefix=f"mt-shard{index}-"),
                    ssd=ssd, memory_budget_bytes=1 << 22)

    store = ShardedKVStore(factory, 2)
    tables = EmbeddingTables(store, _DIM, seed=_SEED, cache_entries=0)
    for tenant in range(_TENANT_COUNT):
        keys = [namespace_key(tenant, key) for key in range(_ITEMS)]
        store.multi_put(
            keys, [encode_vector(tables.init_vector(key)) for key in keys]
        )
    store.clock.drain()
    server = EmbeddingServer(store, dim=_DIM, seed=_SEED, cache_entries=1024)
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


def _add_tenants(cluster, start):
    gold = cluster.add_tenant(
        TenantSpec("gold", target_p99=_SLO_GOLD, priority=2, max_delay=25e-6),
        LoadGenerator(_ITEMS, "zipfian", seed=_SEED).open_loop_process(
            PoissonProcess(2e5, seed=1, start=start), 2_000
        ),
    )
    silver_d = cluster.add_tenant(
        TenantSpec("silver-diurnal", target_p99=2e-3, priority=1),
        LoadGenerator(_ITEMS, "zipfian", seed=_SEED + 1).open_loop_process(
            DiurnalProcess(5e4, 4e5, period=8e-3, phase=start, seed=2,
                           start=start),
            2_500,
        ),
    )
    storm_gen = LoadGenerator(_ITEMS, "zipfian", seed=_SEED + 2)
    silver_s = cluster.add_tenant(
        TenantSpec("silver-storm", target_p99=2e-3, priority=1),
        storm_gen.open_loop_process(
            PoissonProcess(1.5e5, seed=3, start=start),
            1_500,
            storm=HotKeyStorm(storm_gen.chooser(), hot_keys=8,
                              storm_at=start + 2e-3, storm_duration=4e-3,
                              hot_fraction=0.9, seed=4),
        ),
    )
    bronze = cluster.add_tenant(
        TenantSpec("bronze", target_p99=10e-3, priority=0, rate_limit=2e6,
                   burst=512, shed_depth=2_048),
        LoadGenerator(_ITEMS, "zipfian", seed=_SEED + 3).open_loop_process(
            FlashCrowdProcess(1e5, 4e6, flash_at=start + 3e-3,
                              flash_duration=6e-3, seed=5, start=start),
            12_000,
        ),
    )
    return gold, silver_d, silver_s, bronze


def test_slo_matrix_holds_through_flash_crowd_and_live_split(benchmark):
    """Acceptance: gold attainment through the flash, bronze shed, one
    live split with zero lost requests, p99-during-rescale reported."""

    def run():
        store, server, autoscaler, cluster = _build_cluster()
        start = server.clock.now
        tenants = _add_tenants(cluster, start)
        telemetry = cluster.run()
        result = cluster.report()
        # Post-split routing must still resolve every namespace.
        probes = sum(
            store.get(namespace_key(tenant, key)) is not None
            for tenant in range(_TENANT_COUNT)
            for key in range(0, _ITEMS, 997)
        )
        result["_probes_ok"] = probes
        result["_probes_total"] = _TENANT_COUNT * len(range(0, _ITEMS, 997))
        result["_completed"] = telemetry.requests_completed
        result["_num_shards"] = store.num_shards
        result["_tenants"] = tenants
        store.close()
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    gold, silver_d, silver_s, bronze = result.pop("_tenants")
    tenants = result["tenants"]
    auto = result["autoscaler"]

    rows = []
    for tenant in (gold, silver_d, silver_s, bronze):
        block = tenants[tenant.spec.name]
        rows.append({
            "Tenant": tenant.spec.name,
            "Priority": tenant.spec.priority,
            "Target p99 (us)": round(tenant.spec.target_p99 * 1e6, 1),
            "Offered": block["offered"],
            "Admitted": block["admitted"],
            "Shed": block["shed_rate"] + block["shed_queue"],
            "p99 (us)": round(block["latency"]["p99"] * 1e6, 1),
            "Attainment": round(block["slo_attainment"], 3),
        })

    phases = result.get("phases", {})
    rescale = phases.get("rescale:split", {})
    steady = phases.get("steady", {})
    rescale_p99 = rescale.get("p99", 0.0)
    offered = sum(t.offered for t in (gold, silver_d, silver_s, bronze))
    shed = sum(t.shed for t in (gold, silver_d, silver_s, bronze))

    report("multitenant_slo_matrix", rows,
           note=f"{_TENANT_COUNT} tenants, one shared store; flash crowd "
                f"40x on bronze; splits completed = "
                f"{auto['splits_completed']}, shards = "
                f"{result['_num_shards']}, p99 during rescale = "
                f"{rescale_p99 * 1e6:.1f} us")
    emit(
        "multitenant",
        metrics={
            "cluster_rps": result["throughput_rps"],
            "gold_p99_us": tenants["gold"]["latency"]["p99"] * 1e6,
            "gold_slo_hit_ratio": tenants["gold"]["slo_attainment"],
            "steady_p99_us": steady.get("p99", 0.0) * 1e6,
            "rescale_p99_us": rescale_p99 * 1e6,
            "bronze_shed_fraction": bronze.shed / bronze.offered,
            "splits_completed": auto["splits_completed"],
        },
        rows=rows,
        meta={
            "tenants": _TENANT_COUNT,
            "items_per_tenant": _ITEMS,
            "flash": "40x for 6 ms on bronze",
            "policy": {"max_batch": 64, "max_delay": 150e-6},
            "autoscaler": {"p99_threshold": 150e-6, "max_shards": 3},
        },
    )

    # Admission isolation: the flash crowd sheds bronze, nobody else.
    assert bronze.shed > 0
    assert gold.shed == silver_d.shed == silver_s.shed == 0
    # The high-SLO tenant rides through the flash inside its target.
    assert tenants["gold"]["slo_attainment"] >= 0.95
    # One live split completed under load.
    assert auto["splits_completed"] >= 1
    assert result["_num_shards"] >= 3
    # Zero lost requests: everything offered was served or counted shed.
    assert result["_completed"] + shed == offered
    # And the rescale phase was measured (p99-during-rescale).
    assert rescale_p99 > 0.0
    assert result["_probes_ok"] == result["_probes_total"]
