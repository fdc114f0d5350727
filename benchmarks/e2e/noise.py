"""Noise study: do two sets of runs of the same code agree?

    python3 benchmarks/e2e/noise.py --sets 2 --runs 5 [--seed S]

Makes ``sets x runs`` full runs (all four workloads, untraced), dealing
them to the sets in turn so both sets see the same stretch of host
weather.  Run ``i`` of every set uses seed ``S + i``, which is how the
acceptance procedure samples (another seed each time) and lets the
exact metrics of one seed be compared bit for bit across sets.

Per workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over median) and how much
worse the later set's median is than the first's.  Exits non-zero when a
spread or a deviation exceeds the metric's bound in ``BENCHMARK.json``
(``setup_s`` is held to its deviation only), or when an exact metric
fails to repeat.  A last table sets the calibrated fast decile of op time
and the calibrated set-up time against the raw numbers of the same runs.
Run length is ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

# ``benchmarks/`` replaces the script directory on the path (see worker.py).
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from e2e.run import EXACT, load_contract, run_workload  # noqa: E402


#: Calibrated numbers and their raw counterparts from the same pass.
OP_TIME = ("run.op_ms_p10", "run.raw_op_ms_p10", "setup_s", "run.setup_wall_s")


def spread(values: list[float]) -> float:
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """Share of ``first`` by which ``later`` is worse (negative: better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    contract = load_contract()
    seconds = contract["run_seconds"]
    workloads = [w["name"] for w in contract["workloads"]]
    started = time.perf_counter()
    # values[workload][metric][set] -> one value per run, in seed order
    values = {
        w: {m["name"]: [[] for _ in range(args.sets)] for m in contract["end_to_end"]}
        for w in workloads
    }
    # The same runs' times with and without the calibration kernel.
    op_ms = {
        w: {name: [[] for _ in range(args.sets)] for name in OP_TIME}
        for w in workloads
    }
    failed_ops = 0
    for run in range(args.runs):
        for group in range(args.sets):
            for workload in workloads:
                result = run_workload(
                    workload, args.seed + run, seconds, False, False, "", contract
                )
                failed_ops += result["failed"]
                for name, metric in result["metrics"].items():
                    values[workload][name][group].append(metric["value"])
                for name in OP_TIME:
                    op_ms[workload][name][group].append(result["_all"][name])
            print(f"# run {run} of set {group} done "
                  f"({time.perf_counter() - started:.0f} s)", file=sys.stderr)

    problems: list[str] = []
    print(f"noise study: {args.sets} sets x {args.runs} runs, seeds "
          f"{args.seed}..{args.seed + args.runs - 1}, {seconds:g} s timed per run")
    print(f"{'workload':<15}{'metric':<28}{'set':>4}{'median':>14}{'q1':>14}"
          f"{'q3':>14}{'spread':>9}{'worse by':>10}{'bound':>7}")
    for workload in workloads:
        for entry in contract["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            sets = values[workload][name]
            first = statistics.median(sets[0])
            for group, series in enumerate(sets):
                q1, _, q3 = statistics.quantiles(series, n=4)
                wide = spread(series)
                deviation = worse_by(first, statistics.median(series), entry["better"])
                print(f"{workload:<15}{name:<28}{group:>4}{statistics.median(series):>14.6g}"
                      f"{q1:>14.6g}{q3:>14.6g}{wide:>9.2%}{deviation:>10.2%}{bound:>7.0%}")
                if name != "setup_s" and wide > bound:
                    problems.append(f"{workload}/{name} set {group}: spread {wide:.2%}")
                if deviation > bound:
                    problems.append(f"{workload}/{name} set {group}: worse by {deviation:.2%}")
            if name in EXACT and any(series != sets[0] for series in sets[1:]):
                problems.append(f"{workload}/{name}: not bit-equal across sets")
    if failed_ops:
        problems.append(f"{failed_ops} ops failed")
    print(f"exact metrics ({', '.join(EXACT)}) "
          f"{'repeat bit for bit' if not any('bit-equal' in p for p in problems) else 'DIFFER'} "
          "across sets for every seed")
    print(f"total wall time {time.perf_counter() - started:.0f} s")
    print("every run, in seed order (wall metrics only; the rest repeat):")
    for workload in workloads:
        for name in ("setup_s", "work_per_s", "peak_rss_mb"):
            for group, series in enumerate(values[workload][name]):
                print(f"  {workload:<15}{name:<13}{group:>2}  "
                      + " ".join(f"{value:.6g}" for value in series))
    print("calibrated against raw, same runs: fast decile of op time, set-up "
          "(spread; widest run over narrowest - 1):")
    for workload in workloads:
        for group in range(args.sets):
            print(f"  {workload:<15}{group:>2}  " + "   ".join(
                f"{name} {spread(series[group]):.2%} {max(series[group]) / min(series[group]) - 1:.2%}"
                for name, series in op_ms[workload].items()
            ))
    for problem in problems:
        print(f"OUT OF BOUND: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
