"""Run the repository benchmark: one command, every metric by name and unit.

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload dlrm_ooc --seed 3 --trace 1
    python3 benchmarks/e2e/run.py --quick              # a smoke run, seconds

Each workload pass runs in its own fresh, single-threaded interpreter
(``worker.py``) with the environment pinned here.  ``--trace 0`` makes one
untraced pass and reports the end-to-end metrics; ``--trace 1`` makes an
untraced and a traced pass of half the length each, checks that both
computed the same thing, and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  Metric names, units, directions and bounds live
in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, ".work")
WORKER = os.path.join(HERE, "worker.py")

#: What the runner pins for every worker.  ``--seed`` drives only input
#: generation; hashing, BLAS threading and the allocator do not vary.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Timed ops per second of ``--seconds``: the seed's op rate on the
#: undisturbed reference host, so the timed region lasts ``--seconds``
#: there.  Run length is a count of ops, never a stopwatch: two commits
#: given the same ``--seconds`` run the same ops on the same inputs.
OPS_PER_SECOND = {
    "dlrm_mem": 14.0,
    "dlrm_ooc": 9.5,
    "gnn_dense": 9.5,
    "serve_restored": 14.5,
}
WARMUP_OPS = 20
QUICK_OPS, QUICK_WARMUP = 6, 1
WORKER_TIMEOUT_SECONDS = 170

#: Metrics that must repeat bit for bit for one seed and op count.
EXACT = ("sim_work_per_s", "sim_op_ms_p95", "stored_bytes_per_user_byte",
         "io_amplification")


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_pass(workload: str, seed: int, ops: int, warmup: int, traced: bool,
             small: bool, trace_out: str = "") -> dict:
    """One worker process; returns its JSON result."""
    workdir = os.path.join(
        WORK, f"{workload}-{os.getpid()}-{'traced' if traced else 'plain'}"
    )
    command = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--ops", str(ops), "--warmup", str(warmup), "--workdir", workdir,
        "--traced", str(int(traced)), "--small", str(int(small)),
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    try:
        done = subprocess.run(
            command, env={**os.environ, **PINNED_ENV}, stdout=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_SECONDS,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    if done.returncode != 0:
        raise SystemExit(f"worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def op_counts(workload: str, seconds: float, trace: bool, quick: bool) -> tuple[int, int]:
    if quick:
        return QUICK_OPS, QUICK_WARMUP
    ops = max(10, round(seconds * OPS_PER_SECOND[workload]))
    return (max(10, ops // 2) if trace else ops), WARMUP_OPS


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool, trace_out: str, contract: dict) -> dict:
    """All passes of one workload, merged into the contract's result."""
    ops, warmup = op_counts(workload, seconds, trace, quick)
    end_to_end = {entry["name"] for entry in contract["end_to_end"]}
    per_layer = {entry["name"] for entry in contract["per_layer"]}
    plain = run_pass(workload, seed, ops, warmup, False, quick)
    failures = list(plain["failures"])
    attempted, failed = plain["attempted"], plain["failed"]
    values = dict(plain["metrics"])
    if trace:
        traced = run_pass(workload, seed, ops, warmup, True, quick, trace_out)
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures += traced["failures"]
        if traced["loss_crc"] != plain["loss_crc"]:
            failures.append("loss sequence differs between untraced and traced pass")
        for name in EXACT:
            if traced["metrics"][name] != plain["metrics"][name]:
                failures.append(f"{name} did not repeat exactly for one seed")
        # End-to-end and run.* numbers always come from the untraced pass.
        untraced = {
            name: value for name, value in values.items()
            if name.startswith("run.") or name in end_to_end
        }
        values = dict(traced["metrics"])
        values.update(untraced)
    for name in sorted(set(values) - end_to_end - per_layer):
        failures.append(f"metric {name} is not listed in BENCHMARK.json")
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    metrics = {
        entry["name"]: {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in wanted
    }
    if failures and not failed:
        failed = attempted
    return {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "_failures": failures,
        "_all": values,
        "_plain": plain,
    }


def host_record(first: dict) -> list[str]:
    return [
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={first['numpy']} "
        + " ".join(f"{key}={value}" for key, value in PINNED_ENV.items()),
        f"work dir: {WORK} ({first['workdir_fs']})",
    ]


def show(workload: str, result: dict, contract: dict, trace: bool) -> None:
    """Every metric by name with its unit; a traced run lists them all
    (a layer the workload bypasses reads 0), an untraced one what it has."""
    print(f"== {workload}: attempted {result['attempted']} ops, "
          f"failed {result['failed']}, correct {result['correct']}")
    for failure in result["_failures"]:
        print(f"   FAILED CHECK: {failure}")
    values = result["_all"]
    for entry in contract["end_to_end"] + contract["per_layer"]:
        if trace or entry["name"] in values:
            value = values.get(entry["name"], 0.0)
            print(f"   {entry['name']:<36} {value:>16.6g} {entry['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(OPS_PER_SECOND))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="passed by the benchmark driver: run_seconds of "
                             "BENCHMARK.json, which is also the default")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--trace-out", default="",
                        help="write the traced pass as Chrome trace JSON here")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_OPS} ops on scaled-down inputs: a smoke run")
    args = parser.parse_args()

    started = time.perf_counter()
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    results = {}
    for index, name in enumerate(names):
        trace_out = args.trace_out
        if trace_out and len(names) > 1:
            base, extension = os.path.splitext(trace_out)
            trace_out = f"{base}.{name}{extension}"
        result = run_workload(name, args.seed, seconds, bool(args.trace),
                              args.quick, trace_out, contract)
        if index == 0:
            print("\n".join(host_record(result["_plain"])))
        show(name, result, contract, bool(args.trace))
        results[name] = result
    slow = " ".join(
        f"{name}={result['_all']['run.slow_op_share']:.2f}"
        for name, result in results.items()
    )
    print(f"run.slow_op_share: {slow}")
    print(f"benchmark wall time: {time.perf_counter() - started:.1f} s")

    public = {
        name: {k: v for k, v in result.items() if not k.startswith("_")}
        for name, result in results.items()
    }
    print(json.dumps(public[args.workload] if args.workload else public))
    return 0


if __name__ == "__main__":
    sys.exit(main())
