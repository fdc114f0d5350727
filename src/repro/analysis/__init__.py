"""Repo-specific correctness tooling: static lint + runtime sanitizer.

Two halves, one goal — check the invariants the simulated train/serve
stack rests on *mechanically* instead of hoping a hand-written test
happens to cover each regression:

* :mod:`repro.analysis.lint` — an AST lint pass (``python -m
  repro.analysis.lint``) enforcing repo invariants generic linters
  cannot express: simulated-clock purity (REP001), KVStore contract
  completeness (REP002), storage layering (REP003), no swallowed broad
  exceptions in crash-safety code (REP004), and no nondeterministic
  set-order iteration (REP005).  Findings are suppressed line-by-line
  with ``# repro: lint-ignore[RULE]`` pragmas.
* :mod:`repro.analysis.sanitize` — a runtime invariant sanitizer in the
  TSan mold: enabled under ``REPRO_SANITIZE=1`` (via the pytest
  conftest), it wraps replica-group read routing, donor choice and
  fan-out writes (which must keep every live replica owing no hints and
  grow each dead one's hint set by exactly the written keys), the
  parameter-server push ledger and the cloud checkpointer with checked
  invariants, raising :class:`~repro.errors.SanitizerError` carrying a
  ring-buffer event trace on the first violation.

The sanitizer half imports the full train/serve stack (and numpy), so
it is loaded lazily — ``python -m repro.analysis.lint`` needs nothing
beyond the standard library.
"""

from __future__ import annotations

from typing import Any

_LINT_EXPORTS = (
    "Finding",
    "LintRule",
    "lint_files",
    "lint_paths",
    "rule_registry",
)
_SANITIZE_EXPORTS = (
    "Sanitizer",
    "disable_sanitizer",
    "enable_sanitizer",
    "sanitized",
)

__all__ = ["SanitizerError", *_LINT_EXPORTS, *_SANITIZE_EXPORTS]


def __getattr__(name: str) -> Any:
    """Lazy exports (PEP 562): the package import stays side-effect free
    so ``python -m repro.analysis.lint`` never pre-imports the module it
    is about to execute, and the lint half never drags in numpy."""
    if name in _LINT_EXPORTS:
        from repro.analysis import lint

        return getattr(lint, name)
    if name in _SANITIZE_EXPORTS:
        from repro.analysis import sanitize

        return getattr(sanitize, name)
    if name == "SanitizerError":
        from repro.errors import SanitizerError

        return SanitizerError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
