"""Turn a ``benchmarks/e2e/run.py`` report into an exit status.

    python3 benchmarks/e2e/run.py --quick --trace 1 | python benchmarks/check_e2e.py

``run.py`` always exits 0 and says what it found in its last output line
(one JSON object per workload: ``correct``, ``attempted``, ``failed``,
``metrics``).  This filter passes the report through and fails when a
workload computed a wrong result or failed an op, or when the spans of a
traced training workload cover less than ``MIN_ATTRIBUTED_SHARE`` of a
step — a per-layer ledger that no longer adds up — or when its engine
makes more than ``MAX_PY_CALLS_PER_KEY`` Python calls per key: batches
have dropped back to the per-key loop.

A full traced run also voids itself (``correct: false``) when tracing
costs more than 10% of an op.  The smoke run cannot check that: the
benchmark skips the check for ``--quick`` because six ops are too few to
time (the ratio reads 0.95 to 1.3 from run to run), and so does this.
"""

from __future__ import annotations

import json
import sys

MIN_ATTRIBUTED_SHARE = 0.95

#: Ceiling on ``kv.py_calls_per_key`` of a traced training workload.  The
#: count repeats exactly; the smoke run reads 0.05 (``dlrm_mem``), 0.28
#: (``dlrm_ooc``, out of core at its 256 KiB budget) and 0.11
#: (``gnn_dense``) with every batch on the array paths, and 20 or more as
#: soon as the Gets or the Puts of a batch go through the per-key loop.
MAX_PY_CALLS_PER_KEY = 2.0


def problems(report: dict) -> list[str]:
    """Every reason the report should fail the build."""
    if "metrics" in report:  # a single --workload run prints its object bare
        report = {"workload": report}
    found = []
    for name, result in report.items():
        if not result["correct"] or result["failed"]:
            found.append(
                f"{name}: correct={result['correct']}, "
                f"{result['failed']} of {result['attempted']} ops failed"
            )
        share = result["metrics"].get("train.attributed_share", {}).get("value", 0.0)
        if share <= 0.0:  # untraced, or not a training workload
            continue
        if share < MIN_ATTRIBUTED_SHARE:
            found.append(f"{name}: spans cover only {share:.3f} of a training step")
        calls = result["metrics"].get("kv.py_calls_per_key", {}).get("value", 0.0)
        if calls > MAX_PY_CALLS_PER_KEY:
            found.append(
                f"{name}: {calls:.2f} Python calls per key in the engine "
                f"(ceiling {MAX_PY_CALLS_PER_KEY:g}): batches take the per-key loop"
            )
    return found


def main() -> int:
    lines = sys.stdin.read().splitlines()
    print("\n".join(lines[:-1]))
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("check_e2e: no JSON report on the last line (did the run crash?)")
        return 1
    found = problems(report)
    for problem in found:
        print(f"check_e2e: {problem}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
