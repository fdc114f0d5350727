"""Benchmark-suite configuration.

Makes the sibling ``_util`` module importable, prints every collected
figure table after the run (pytest's fd-level capture would otherwise
swallow mid-test prints), and decides where the run writes:
``--bench-root=DIR`` puts ``BENCH_*.json`` and ``results/`` under ``DIR``
(the ``make bench*`` targets pass the repository root, to refresh the
committed files on purpose); without it they go to the git-ignored
``benchmarks/.out/``.  The option exists only when ``benchmarks/`` or a
file in it is named on the command line — which is when it is needed."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_addoption(parser):
    parser.addoption(
        "--bench-root",
        default=None,
        metavar="DIR",
        help="write BENCH_*.json and results/ under DIR (default: benchmarks/.out)",
    )


def pytest_configure(config):
    root = config.getoption("--bench-root", default=None)
    if root:
        import emit

        emit.output_root = os.path.abspath(root)


def pytest_terminal_summary(terminalreporter):
    import _util

    if not _util.COLLECTED:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for text in _util.COLLECTED:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
