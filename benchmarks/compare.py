"""Perf-trajectory gate: diff fresh ``BENCH_*.json`` against baselines.

The committed ``BENCH_*.json`` files at the repository root are the perf
baselines the repo has promised; ``make bench-gate`` snapshots them,
re-runs the emitting benches, and calls this module to compare the fresh
metrics against the snapshot.  A headline metric that moved more than the
tolerance (default 30%) in its *bad* direction fails the gate.

Most benchmarks run on the simulated clock, so the compared numbers are
deterministic and machine-independent — the gate catches real
regressions (an algorithmic change that costs simulated time or
throughput), not CI-runner noise.  Benches tagged ``"clock": "wall"``
in their payload carry real wall-clock measurements instead; those gate
at the much wider ``--wall-tolerance`` (default 60%), which only trips
on order-of-magnitude collapses — e.g. a vectorized path silently
falling back to its per-key loop — never on runner jitter.

Direction is inferred from the metric name (``*_rps``, ``throughput*``,
``speedup*`` are higher-better; ``*p99*``, ``*p50*``, ``*latency*``,
``*seconds*``, ``*_us`` are lower-better); metrics matching neither
vocabulary are reported but never gate.  Usage::

    python benchmarks/compare.py --baseline results/baselines --fresh . \
        [--tolerance 0.30]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

#: Metric-name fragments implying "bigger is better".
HIGHER_BETTER = (
    "rps", "throughput", "speedup", "keys_per_s", "records_per_s", "hit_ratio", "ops_per_s",
    "steps_per_s", "batches_per_s", "requests_per_s",
)

#: Metric-name fragments implying "smaller is better".  Checked after
#: HIGHER_BETTER so e.g. ``keys_per_s`` wins over the ``_s`` suffix.
LOWER_BETTER = ("p99", "p50", "p95", "latency", "seconds", "_us", "joules", "stall")

#: Default allowed relative regression before the gate fails.
DEFAULT_TOLERANCE = 0.30

#: Default tolerance for benches whose payload says ``"clock": "wall"``.
DEFAULT_WALL_TOLERANCE = 0.60


def direction(metric: str) -> str:
    """``"higher"`` / ``"lower"`` / ``"none"`` for a metric name."""
    name = metric.lower()
    if any(fragment in name for fragment in HIGHER_BETTER):
        return "higher"
    if any(fragment in name for fragment in LOWER_BETTER):
        return "lower"
    return "none"


def classify(metric: str, baseline: float, fresh: float, tolerance: float) -> dict:
    """One metric's verdict: ``ok`` / ``regression`` / ``untracked``.

    ``change`` is the relative move in the metric's *bad* direction
    (positive = worse), so the tolerance check is one comparison
    regardless of direction.  A zero baseline cannot express a relative
    change and is reported but never gates.
    """
    sense = direction(metric)
    finding = {
        "metric": metric,
        "baseline": baseline,
        "fresh": fresh,
        "direction": sense,
        "change": 0.0,
        "status": "untracked",
    }
    if sense == "none" or baseline == 0:
        return finding
    moved = (fresh - baseline) / abs(baseline)
    worse = -moved if sense == "higher" else moved
    finding["change"] = worse
    finding["status"] = "regression" if worse > tolerance else "ok"
    return finding


def compare_payloads(
    baseline: dict, fresh: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[dict]:
    """Compare two emitted bench payloads metric by metric.

    Baseline metrics missing from the fresh run are flagged ``missing``
    (a silently dropped metric must not silently pass the gate); new
    fresh metrics are ``new`` and informational.
    """
    findings = []
    base_metrics = baseline.get("metrics", {})
    fresh_metrics = fresh.get("metrics", {})
    for metric in sorted(base_metrics):
        if metric not in fresh_metrics:
            findings.append({
                "metric": metric,
                "baseline": base_metrics[metric],
                "fresh": None,
                "direction": direction(metric),
                "change": 0.0,
                "status": "missing",
            })
            continue
        findings.append(
            classify(metric, base_metrics[metric], fresh_metrics[metric], tolerance)
        )
    for metric in sorted(set(fresh_metrics) - set(base_metrics)):
        findings.append({
            "metric": metric,
            "baseline": None,
            "fresh": fresh_metrics[metric],
            "direction": direction(metric),
            "change": 0.0,
            "status": "new",
        })
    return findings


def _load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def compare_roots(
    baseline_root: str,
    fresh_root: str,
    tolerance: float = DEFAULT_TOLERANCE,
    since: float | None = None,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
) -> tuple[list[dict], list[str]]:
    """Compare every baseline ``BENCH_*.json`` against its fresh sibling.

    Returns ``(per-bench findings, notes)``.  A baseline bench with no
    fresh file is *skipped with a note*.  ``since`` (an mtime epoch)
    guards against the gate fooling itself: when the fresh root is the
    repository root, a committed baseline that the gated run did **not**
    re-emit is still sitting there and would compare "ok" against its
    own copy — with ``since`` set, such stale files are skipped with a
    note instead of counted as checked.

    Per bench, the tolerance follows the *baseline* payload's ``clock``
    tag (absent means ``"sim"``): wall-clock benches use
    ``wall_tolerance``, everything else ``tolerance``.  The baseline's
    tag decides so a fresh payload cannot relax its own gate.
    """
    results: list[dict] = []
    notes: list[str] = []
    baseline_paths = sorted(glob.glob(os.path.join(baseline_root, "BENCH_*.json")))
    if not baseline_paths:
        notes.append(f"no BENCH_*.json baselines under {baseline_root}")
    for path in baseline_paths:
        name = os.path.basename(path)
        fresh_path = os.path.join(fresh_root, name)
        if not os.path.exists(fresh_path):
            notes.append(f"{name}: no fresh emission; baseline kept, not gated")
            continue
        if since is not None and os.path.getmtime(fresh_path) < since:
            notes.append(
                f"{name}: not re-emitted by this gate run; baseline kept, "
                "not gated"
            )
            continue
        baseline = _load(path)
        fresh = _load(fresh_path)
        clock = baseline.get("clock", "sim")
        bench_tolerance = wall_tolerance if clock == "wall" else tolerance
        results.append({
            "bench": baseline.get("bench", name),
            "clock": clock,
            "tolerance": bench_tolerance,
            "findings": compare_payloads(baseline, fresh, bench_tolerance),
        })
    return results, notes


def regressions(results: list[dict]) -> list[dict]:
    """Flatten out the findings that must fail the gate."""
    return [
        dict(finding, bench=result["bench"])
        for result in results
        for finding in result["findings"]
        if finding["status"] in ("regression", "missing")
    ]


def render(results: list[dict], notes: list[str], tolerance: float) -> str:
    """Human-readable gate report (what the CI job summary shows)."""
    lines = [f"perf gate: tolerance {tolerance:.0%}"]
    for note in notes:
        lines.append(f"  note: {note}")
    for result in results:
        if result.get("clock") == "wall":
            lines.append(
                f"bench {result['bench']} (wall clock, tolerance "
                f"{result['tolerance']:.0%}):"
            )
        else:
            lines.append(f"bench {result['bench']}:")
        for finding in result["findings"]:
            status = finding["status"]
            metric = finding["metric"]
            if status == "missing":
                lines.append(f"  MISSING    {metric} (baseline {finding['baseline']:g})")
            elif status == "new":
                lines.append(f"  new        {metric} = {finding['fresh']:g}")
            elif status == "untracked":
                lines.append(
                    f"  untracked  {metric}: {finding['baseline']:g} -> "
                    f"{finding['fresh']:g}"
                )
            else:
                tag = "REGRESSION" if status == "regression" else "ok        "
                lines.append(
                    f"  {tag} {metric}: {finding['baseline']:g} -> "
                    f"{finding['fresh']:g} ({finding['change']:+.1%} worse, "
                    f"{finding['direction']}-is-better)"
                )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory holding the committed BENCH_*.json snapshot")
    parser.add_argument("--fresh", required=True,
                        help="directory the gated bench run emitted into")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed relative regression (default 0.30)")
    parser.add_argument("--wall-tolerance", type=float,
                        default=DEFAULT_WALL_TOLERANCE,
                        help="allowed relative regression for benches whose "
                             "baseline payload is tagged clock=wall "
                             "(default 0.60)")
    parser.add_argument("--since", default=None,
                        help="marker file: only gate fresh files modified "
                             "after it (guards against a committed baseline "
                             "self-comparing as 'ok')")
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error(f"tolerance must be in [0, 1), got {args.tolerance}")
    if not 0 <= args.wall_tolerance < 1:
        parser.error(
            f"wall-tolerance must be in [0, 1), got {args.wall_tolerance}"
        )
    since = None
    if args.since is not None:
        if not os.path.exists(args.since):
            parser.error(f"--since marker {args.since} does not exist")
        since = os.path.getmtime(args.since)
    results, notes = compare_roots(args.baseline, args.fresh, args.tolerance,
                                   since=since,
                                   wall_tolerance=args.wall_tolerance)
    print(render(results, notes, args.tolerance))
    failed = regressions(results)
    if failed:
        print(f"\nFAIL: {len(failed)} metric(s) regressed beyond their "
              "bench's tolerance:")
        for finding in failed:
            print(f"  {finding['bench']}.{finding['metric']}")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
