"""Fast self-test of the benchmark's own arithmetic and its smoke run.

Collected by the tier-1 suite; writes only inside the benchmark's own
``.work`` directory (removed again) and never touches a tracked file.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from e2e.estimators import (
    CALIBRATION_REFERENCE_SECONDS,
    Laps,
    fast_decile,
    quantile,
    steady_total,
)
from e2e.trace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_fast_decile_recovers_the_lower_mode_of_a_two_speed_host():
    rng = random.Random(7)
    # 400 ops of 55 ms (+ up to 4% jitter); the host runs 1.45x slower in
    # long regimes and is undisturbed for under a fifth of the run.
    regimes = [(80, True), (30, False), (120, True), (40, False), (130, True)]
    series = [
        (1.45 if slow else 1.0) * 0.055 * (1.0 + rng.random() * 0.04)
        for length, slow in regimes
        for _ in range(length)
    ]
    lower_mode = 0.055 * 1.02
    assert abs(fast_decile(series) - lower_mode) / lower_mode < 0.03
    # The median sits in the slow mode: that is the noise the estimator
    # exists to avoid.
    assert quantile(series, 0.5) > 1.4 * lower_mode


def test_quantile_interpolates_linearly():
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
    assert quantile([4.0, 3.0, 2.0, 1.0], 1.0) == 4.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert quantile([10.0], 0.1) == 10.0
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_steady_total_charges_every_chunk_at_the_lower_quartile():
    chunks = [0.10, 0.10, 0.11, 0.10, 0.45, 0.10, 0.12, 0.10]
    assert steady_total(chunks) == pytest.approx(8 * quantile(chunks, 0.25))
    assert steady_total(chunks) < 0.85  # the 0.45 s outlier is not paid
    assert steady_total([]) == 0.0


def test_laps_exclude_the_kernel_and_rescale_by_host_speed():
    laps = Laps(calibrator=lambda: None)
    reference = CALIBRATION_REFERENCE_SECONDS
    # Three marks: the kernel ran at 1x, 2x and 2x the reference time.
    laps.before = [0.0, 1.0, 3.0]
    laps.after = [reference, 1.0 + 2 * reference, 3.0 + 2 * reference]
    assert len(laps) == 2
    assert laps.raw() == pytest.approx([1.0 - reference, 2.0 - 2 * reference])
    assert laps.speed_factors() == pytest.approx([1.5, 2.0])
    assert laps.calibrated() == pytest.approx(
        [(1.0 - reference) / 1.5, (2.0 - 2 * reference) / 2.0]
    )


def test_span_self_time_is_duration_minus_covered_child_time():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 10.0, 11.0, 12.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.next_op()
    outer = tracer.enter("emb.get")          # 0
    inner = tracer.enter("kv.multi_get")     # 1
    leaf = tracer.enter("kv.multi_put")      # 2
    tracer.exit(leaf)                        # 4
    tracer.exit(inner)                       # 5
    second = tracer.enter("kv.multi_get")    # 7
    tracer.exit(second)                      # 10
    tracer.exit(outer)                       # 11
    ledger = tracer.per_op(first_op=0, ops=1)
    assert ledger.seconds("emb.get") == [11.0]
    assert ledger.seconds("emb.get", self_only=True) == [11.0 - 4.0 - 3.0]
    assert ledger.seconds("kv.multi_get") == [4.0 + 3.0]
    assert ledger.seconds("kv.multi_get", self_only=True) == [2.0 + 3.0]
    assert ledger.layer_seconds("kv.") == [2.0 + 3.0 + 2.0]
    assert ledger.attributed == [11.0]       # only the top-level span
    assert ledger.calls["kv.multi_get"] == [2]
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events].count("kv.multi_get") == 2
    assert events[1]["args"]["parent"] == 0 and events[0]["args"]["parent"] == -1


def test_spans_are_recorded_in_alternating_blocks_of_ops():
    tracer = Tracer(clock=iter(range(100)).__next__)

    class Store:
        def get(self):
            return "row"

    store = Store()
    tracer.wrap(store, "get", "kv.multi_get")
    block = Tracer.BLOCK_OPS
    for _ in range(3 * block):
        tracer.next_op()
        assert store.get() == "row"
    recorded = [span[Tracer.OP] for span in tracer.spans]
    assert recorded == list(range(block)) + list(range(2 * block, 3 * block))
    assert [tracer.records(op) for op in (-1, 0, block - 1, block, 2 * block)] == [
        True, True, True, False, True,
    ]


def _git_status():
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def test_quick_run_prints_exactly_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    before = _git_status()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0
    assert _git_status() == before
    assert not os.path.exists(os.path.join(HERE, ".work"))

    lines = done.stdout.splitlines()
    results = json.loads(lines[-1])
    workloads = [w["name"] for w in contract["workloads"]]
    assert list(results) == workloads
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for name in workloads:
        result = results[name]
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == layer_units

    # The human-readable part names every metric of the contract, each
    # with its unit, and nothing the contract does not list.
    units = dict(layer_units)
    units.update({m["name"]: m["unit"] for m in contract["end_to_end"]})
    printed: dict[str, set] = {}
    current = None
    for line in lines[:-1]:
        if line.startswith("== "):
            current = line.split()[1].rstrip(":")
            printed[current] = set()
        elif line.startswith("   ") and current and "FAILED" not in line:
            name, _, unit = line.split()
            assert units[name] == unit
            printed[current].add(name)
    assert list(printed) == workloads
    for name in workloads:
        assert printed[name] == set(units)
