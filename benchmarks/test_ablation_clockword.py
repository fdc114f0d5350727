"""Ablation — cost of the latch-word vector clock (DESIGN.md §ablations).

Compares MLKV with bounded staleness enabled vs disabled (§IV-E: "If the
user disables bounded stale consistency, MLKV only incurs memory
overhead and no performance overhead") on a uniform YCSB run.  The
"vector clock off" arm is :class:`FasterKV` with the same arguments:
MLKV's records keep their latch words, and with the clock off nothing
on the hot path reads or writes them, which is exactly FASTER.
"""

import tempfile

from _util import report

from repro.core.mlkv import MLKV
from repro.data import YCSBWorkload
from repro.device import SimClock, SSDModel
from repro.kv.faster import FasterKV


def _throughput(bounded: bool) -> float:
    ssd = SSDModel(SimClock())
    engine = MLKV if bounded else FasterKV
    store = engine(tempfile.mkdtemp(prefix="ablate-clock-"), ssd=ssd,
                   memory_budget_bytes=1 << 20)
    workload = YCSBWorkload(8000, distribution="uniform", seed=21)
    for key, value in workload.load_values():
        store.put(key, value)
    start = ssd.clock.now
    for op in workload.operations(8000):
        if op.is_read:
            store.get(op.key)
        else:
            store.put(op.key, workload.payload(op.key))
    elapsed = ssd.clock.now - start
    store.close()
    return 8000 / elapsed


def test_ablation_clockword(benchmark):
    results = benchmark.pedantic(
        lambda: {label: _throughput(flag) for label, flag in
                 (("vector clock on", True), ("vector clock off", False))},
        rounds=1, iterations=1,
    )
    rows = [{"Config": label, "ops/s": int(tput)} for label, tput in results.items()]
    overhead = 1.0 - results["vector clock on"] / results["vector clock off"]
    rows.append({"Config": "overhead", "ops/s": f"{100 * overhead:.1f}%"})
    report("ablation_clockword", rows)
    assert 0.0 <= overhead < 0.15
