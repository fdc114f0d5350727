"""Shared helpers for the figure benchmarks.

Every bench registers its table through :func:`report`; the tables are
persisted under ``results/`` of the run's output root (see ``emit.py``:
the repository's own ``results/`` only for ``make bench*``) immediately
and printed in the pytest terminal summary (after capture ends), so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` records
every series the paper's figures plot.
"""

from __future__ import annotations

import os

import emit
from repro.bench import format_table, save_results

#: Accumulated (name, rendered table) pairs, flushed by the
#: pytest_terminal_summary hook in benchmarks/conftest.py.
COLLECTED: list[str] = []


def report(name: str, rows: list[dict], note: str = "") -> None:
    """Render a figure's rows, queue them for the summary, persist them."""
    text = format_table(rows, title=name)
    if note:
        text += f"\n  note: {note}"
    COLLECTED.append(text)
    save_results(name, rows, results_dir=os.path.join(emit.output_root, "results"))
