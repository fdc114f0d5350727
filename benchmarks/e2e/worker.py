"""One workload, one pass, in this process; prints one JSON line.

``run.py`` starts this file in a fresh interpreter with the environment
pinned, so ``peak_rss_mb`` is per workload and nothing carries over from
one pass to the next.  Imports are not part of ``setup_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# ``benchmarks/`` (for the ``e2e`` package) replaces the script directory,
# so sibling files such as trace.py never shadow standard modules.
sys.path[0] = os.path.dirname(HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from e2e.estimators import (  # noqa: E402
    Calibrator, Laps, fast_decile, quantile, steady_total,
)
from e2e.trace import Tracer  # noqa: E402
from e2e.workloads import (  # noqa: E402
    DIM, VECTOR_BYTES, WORKLOADS, Phases, ratio, synthetic_rows,
)
from repro.kv.common.serialization import decode_vectors, encode_vectors  # noqa: E402

SLOW_OP_FACTOR = 1.25
MAX_TRACE_OVERHEAD = 1.10
MIN_ATTRIBUTED_SHARE = 0.95


def end_to_end(workload, phases: Phases, laps: Laps, head: float, tail: float) -> dict:
    """The seven end-to-end metrics plus the ungated ``run.*`` diagnostics."""
    first, ops = workload.warmup, workload.ops
    calibrated, raw = laps.calibrated(), laps.raw()
    timed = calibrated[first : first + ops]
    work = workload.work_per_op()
    p10 = fast_decile(timed)
    device_bytes = workload.delta("bytes_read") + workload.delta("bytes_written")
    user_bytes = workload.user_bytes()
    return {
        "setup_s": phases.steady_seconds() + steady_total(calibrated[:first]) + head + tail,
        "work_per_s": sum(work) / len(work) / p10,
        "sim_work_per_s": sum(work) / (workload.sim[first + ops] - workload.sim[first]),
        "sim_op_ms_p95": 1e3 * workload.sim_p95_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stored_bytes_per_user_byte": workload.stored_bytes
        / (workload.live_keys() * VECTOR_BYTES),
        "io_amplification": (user_bytes + device_bytes) / user_bytes,
        "run.ops_timed": ops,
        "run.op_ms_p10": 1e3 * p10,
        "run.op_ms_p50": 1e3 * quantile(timed, 0.50),
        "run.op_ms_p90": 1e3 * quantile(timed, 0.90),
        "run.op_ms_p99": 1e3 * quantile(timed, 0.99),
        "run.raw_op_ms_p10": 1e3 * fast_decile(raw[first : first + ops]),
        "run.raw_op_ms_p50": 1e3 * quantile(raw[first : first + ops], 0.50),
        "run.work_per_s_mean": sum(work) / sum(raw[first : first + ops]),
        "run.host_slowdown": quantile(laps.speed_factors()[first : first + ops], 0.50),
        "run.slow_op_share": sum(1 for t in timed if t > SLOW_OP_FACTOR * p10) / ops,
        "run.setup_wall_s": phases.wall_seconds() + sum(raw[:first]) + head + tail,
    }


def counted_layers(workload, phases: Phases) -> dict:
    """Per-layer metrics that are exact counts (no spans needed)."""
    ops, delta = workload.ops, workload.delta
    out = {
        "kv.mem_hit_ratio": ratio(delta("hits"), delta("hits") + delta("misses")),
        "kv.disk_reads_per_op": delta("reads") / ops,
        "dev.bytes_read_per_op": delta("bytes_read") / ops,
        "dev.bytes_written_per_op": delta("bytes_written") / ops,
        "dev.reads_per_op": delta("reads") / ops,
        "dev.writes_per_op": delta("writes") / ops,
        "dev.log_file_bytes": workload.log_file_bytes,
        "dev.log_resident_bytes": workload.at_end("log_resident_bytes"),
    }
    out.update(workload.counted(phases))
    return out


class LayerTimes:
    """Per-op span sums of the recorded timed ops, reported the way op
    time is: the fast decile of calibrated seconds; shares as the median
    ratio."""

    def __init__(self, workload, tracer: Tracer, laps: Laps) -> None:
        first, ops = workload.warmup, workload.ops
        self.ledger = tracer.per_op(first, ops)
        self.recorded = [slot for slot in range(ops) if tracer.records(first + slot)]
        self._factors = laps.speed_factors()[first : first + ops]
        self._periods = laps.raw()[first : first + ops]
        self.unattributed = [
            period - covered
            for period, covered in zip(self._periods, self.ledger.attributed)
        ]

    def ms_of(self, series) -> float:
        return 1e3 * fast_decile([series[s] / self._factors[s] for s in self.recorded])

    def ms(self, *names: str, self_only: bool = False) -> float:
        return self.ms_of(self.ledger.seconds(*names, self_only=self_only))

    def share(self, series) -> float:
        return quantile([series[s] / self._periods[s] for s in self.recorded], 0.50)

    def overhead_ratio(self) -> float:
        """Mean calibrated op time with spans over mean without, from the
        alternating blocks of this one pass."""
        with_spans = set(self.recorded)
        seconds = [p / f for p, f in zip(self._periods, self._factors)]
        on = [t for slot, t in enumerate(seconds) if slot in with_spans]
        off = [t for slot, t in enumerate(seconds) if slot not in with_spans]
        return (sum(on) / len(on)) / (sum(off) / len(off))


def traced_layers(workload, tracer: Tracer, phases: Phases, laps: Laps) -> dict:
    """Per-layer times from the spans of a traced pass, and its two checks."""
    times = LayerTimes(workload, tracer, laps)
    out = {
        "kv.share": times.share(times.ledger.layer_seconds("kv.")),
        "shard.fanout_self_ms_per_op": times.ms_of(times.ledger.layer_seconds("shard.")),
        "run.trace_overhead_ratio": times.overhead_ratio(),
    }
    out.update(workload.timed(times, phases))
    if not workload.small:  # the smoke run's six ops are too few to time
        workload.check(
            out["run.trace_overhead_ratio"] <= MAX_TRACE_OVERHEAD,
            f"tracing overhead {out['run.trace_overhead_ratio']:.3f} distorts the layer times",
        )
        share = out.get("train.attributed_share")
        workload.check(
            share is None or share >= MIN_ATTRIBUTED_SHARE,
            f"spans cover only {share} of a training step",
        )
    return out


def probes(workload) -> dict:
    """Post-run micro-probes: the codec at the workload's batch shape, and
    Python call events per key inside the engine (repeats exactly)."""
    key_sets = workload.probe_keys()
    rows = synthetic_rows(key_sets[-1], 2, workload.seed)
    encoded = [bytes(view) for view in encode_vectors(rows)]

    def best(function, *args) -> float:
        times = []
        for _ in range(7):
            start = time.perf_counter()
            function(*args)
            times.append(time.perf_counter() - start)
        return min(times)

    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count_calls)
    try:
        probed = sum(workload.probe_engine(keys) for keys in key_sets)
    finally:
        sys.setprofile(None)
    return {
        "codec.encode_keys_per_s": len(rows) / best(encode_vectors, rows),
        "codec.decode_keys_per_s": len(rows) / best(decode_vectors, encoded, DIM),
        "kv.py_calls_per_key": calls / probed,
    }


def filesystem_of(path: str) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--small", type=int, default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    tracer = Tracer() if args.traced else None
    calibrator = Calibrator()
    phases = Phases(calibrator)
    workload = WORKLOADS[args.workload](
        args.seed, args.ops, args.warmup, args.workdir, tracer, bool(args.small)
    )
    try:
        workload.build(phases)
        # Everything built so far is long-lived: keep the collector off it.
        gc.collect()
        gc.freeze()
        laps = Laps(calibrator)
        run_start = time.perf_counter()
        workload.run(laps)
        run_end = time.perf_counter()
        head = laps.before[0] - run_start
        tail = run_end - laps.after[-1]
        workload.finish(phases)
        metrics = end_to_end(workload, phases, laps, head, tail)
        metrics.update(counted_layers(workload, phases))
        if tracer is not None:
            metrics.update(traced_layers(workload, tracer, phases, laps))
            metrics.update(probes(workload))
            if args.trace_out:
                tracer.write(args.trace_out)
        workload.close()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    failed = workload.failed_ops
    if workload.failures:
        # A failed run-level check voids every op of the run.
        failed = args.ops
    print(json.dumps({
        "attempted": args.ops,
        "failed": failed,
        "failures": workload.failures,
        "loss_crc": workload.loss_crc,
        "metrics": metrics,
        "workdir_fs": filesystem_of(os.path.abspath(args.workdir)),
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
