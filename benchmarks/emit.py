"""Machine-readable benchmark emission for cross-PR perf tracking.

Figure tables under ``results/`` reproduce the paper; the ``BENCH_*.json``
files written here track *this repo's own* performance trajectory —
headline metrics a later PR (or CI) can diff without parsing tables.

Each emitted file is self-describing::

    BENCH_<name>.json
    {
      "bench": "<name>",
      "schema": 1,
      "clock": "sim",     # "sim" (deterministic) or "wall" (real time)
      "metrics": {...},   # flat name -> number headline metrics
      "rows": [...],      # optional detail rows (same dicts as report())
      "meta": {...}       # optional workload description
    }

The ``clock`` tag tells the perf gate how much to trust the numbers:
``"sim"`` metrics are deterministic and gate at the tight default
tolerance, ``"wall"`` metrics are real measurements on a shared runner
and gate at the wide wall tolerance (see ``compare.py``).

The committed baselines sit at the repository root, so the perf history
is one glob (``BENCH_*.json``) regardless of how many benches emit.  A
bench run writes there only when asked to: ``make bench``, ``make
bench-gate`` and ``make bench-wallclock`` pass ``--bench-root=.``
(``benchmarks/conftest.py``).  Any other run — the tier-1 suite collects
``benchmarks/`` too — writes under the git-ignored ``benchmarks/.out/``
and leaves the baselines as committed.
"""

from __future__ import annotations

import json
import os

#: Repository root (benchmarks/ lives directly under it).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where :func:`emit`, :func:`load` and ``_util.report`` (under
#: ``results/``) write and read when not given a root.  ``--bench-root``
#: replaces it for one pytest run.
output_root = os.path.join(REPO_ROOT, "benchmarks", ".out")

SCHEMA_VERSION = 1


def emit(
    name: str,
    metrics: dict,
    rows: list[dict] | None = None,
    meta: dict | None = None,
    root: str | None = None,
    clock: str = "sim",
) -> str:
    """Write ``BENCH_<name>.json``; returns the path written.

    ``metrics`` must be a flat mapping of metric name to number — the
    values a perf-trajectory diff compares.  ``rows``/``meta`` carry the
    supporting detail.  ``clock`` declares the metric class: ``"sim"``
    for simulated-clock numbers (deterministic), ``"wall"`` for real
    wall-clock measurements (gated with a wider tolerance).
    """
    if not name or any(ch in name for ch in "/\\"):
        raise ValueError(f"bench name must be a bare identifier, got {name!r}")
    if clock not in ("sim", "wall"):
        raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
    for key, value in metrics.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"metric {key!r} must be a number, got {type(value).__name__}"
            )
    payload = {
        "bench": name,
        "schema": SCHEMA_VERSION,
        "clock": clock,
        "metrics": metrics,
    }
    if rows is not None:
        payload["rows"] = rows
    if meta is not None:
        payload["meta"] = meta
    root = root or output_root
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, f"BENCH_{name}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=2, default=str, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
    return path


def load(name: str, root: str | None = None) -> dict | None:
    """Read a previously emitted bench file (``None`` when absent)."""
    path = os.path.join(root or output_root, f"BENCH_{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)
