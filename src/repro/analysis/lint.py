"""The repo lint engine: rule registry, pragma handling, CLI.

Rules live in :mod:`repro.analysis.rules`; this module owns everything
rule-agnostic — parsing files into :class:`SourceFile` records, mapping
paths to ``repro.*`` module names (rules scope themselves by module),
running the registered rules, and suppressing findings covered by a
``# repro: lint-ignore[RULE]`` pragma on the flagged line.

Two rule shapes exist: per-file rules (``check``) see one parsed file
at a time; project rules (``check_project``) see the whole file set at
once — REP002 needs the cross-file class hierarchy to decide whether an
engine *concretely inherits* a contract method.

CLI::

    python -m repro.analysis.lint [paths...]   # default: src

Exit status 1 when any unsuppressed finding remains, 0 otherwise —
``make lint`` chains into this after ruff.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import Iterable, Iterator, Optional

#: A suppression comment names the rules it silences, e.g.
#: ``x = f()  # repro: lint-ignore[REP005] hint replay order is sorted``.
#: Only genuine comment tokens are scanned (never docstring text), and
#: the pragma must start the comment; trailing free text is the reason.
_PRAGMA = re.compile(r"^#\s*repro:\s*lint-ignore\[([A-Za-z0-9_,\s]+)\]")
_PRAGMA_PREFIX = re.compile(r"^#\s*repro:")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class SourceFile:
    """A parsed file plus the metadata rules scope and suppress by."""

    path: str
    module: Optional[str]
    text: str
    tree: ast.Module
    #: line number -> rule names a pragma on that line suppresses.
    ignores: dict[int, set[str]] = field(default_factory=dict)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class LintRule:
    """Base class for registered rules.

    Subclasses set ``name``/``summary``, scope themselves with
    :meth:`applies`, and implement :meth:`check` (per-file) and/or
    :meth:`check_project` (whole file set — for cross-file invariants).
    """

    name: str = ""
    summary: str = ""

    def applies(self, module: Optional[str]) -> bool:
        """Whether this rule runs on a file of the given module name."""
        return module is not None and module.startswith("repro")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        return ()

    def check_project(self, sources: list[SourceFile]) -> Iterable[Finding]:
        return ()


_REGISTRY: dict[str, LintRule] = {}


def register(rule_cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to the registry (keyed by name)."""
    rule = rule_cls()
    if not rule.name:
        raise ValueError(f"{rule_cls.__name__} has no rule name")
    if rule.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {rule.name}")
    _REGISTRY[rule.name] = rule
    return rule_cls


def rule_registry() -> dict[str, LintRule]:
    """The registered rules, keyed by name (loads the built-in set)."""
    _load_builtin_rules()
    return dict(_REGISTRY)


def _load_builtin_rules() -> None:
    # Imported for the registration side effect; deferred so importing
    # this module never races the registry during partial installs.
    from repro.analysis import rules  # noqa: F401


def module_name_for(path: str) -> Optional[str]:
    """Dotted ``repro.*`` module name for ``path``, or ``None``.

    Rules scope themselves by module, so only files living under a
    ``src/`` root (or an explicit ``repro/`` package directory) get a
    module name; tests, benchmarks and examples map to ``None`` and are
    skipped by every scoped rule.
    """
    parts = PurePath(path).parts
    if "src" in parts:
        rel = parts[parts.index("src") + 1 :]
    elif "repro" in parts:
        rel = parts[parts.index("repro") :]
    else:
        return None
    if not rel or not rel[-1].endswith(".py"):
        return None
    pieces = list(rel[:-1]) + [rel[-1][: -len(".py")]]
    if pieces[-1] == "__init__":
        pieces.pop()
    return ".".join(pieces) if pieces else None


def _scan_pragmas(text: str) -> tuple[dict[int, set[str]], list[tuple[int, str]]]:
    """Per-line suppressions plus malformed pragma diagnostics.

    Walks comment *tokens* so pragma-shaped text inside strings and
    docstrings (this module's own documentation, say) never counts.
    """
    ignores: dict[int, set[str]] = {}
    bad: list[tuple[int, str]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse ran first
        return ignores, bad
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        comment = token.string
        if not _PRAGMA_PREFIX.match(comment):
            continue
        lineno = token.start[0]
        match = _PRAGMA.match(comment)
        if match is None:
            if "lint-ignore" in comment:
                bad.append((lineno, "malformed lint-ignore pragma"))
            continue
        names = {name.strip() for name in match.group(1).split(",") if name.strip()}
        ignores.setdefault(lineno, set()).update(names)
    return ignores, bad


def parse_source(path: str, text: str, module: Optional[str] = None) -> SourceFile:
    """Parse one file into a :class:`SourceFile` (pragmas included)."""
    tree = ast.parse(text, filename=path)
    ignores, _ = _scan_pragmas(text)
    resolved = module if module is not None else module_name_for(path)
    return SourceFile(path=path, module=resolved, text=text, tree=tree, ignores=ignores)


def _pragma_findings(source: SourceFile, known: set[str]) -> Iterator[Finding]:
    """REP000: pragmas naming rules that do not exist are themselves
    findings — a typoed suppression silently suppresses nothing."""
    _, bad = _scan_pragmas(source.text)
    for lineno, message in bad:
        yield Finding("REP000", source.path, lineno, 1, message)
    for lineno, names in source.ignores.items():
        for name in sorted(names - known):
            yield Finding(
                "REP000", source.path, lineno, 1,
                f"lint-ignore pragma names unknown rule {name!r}",
            )


def lint_files(files: dict[str, str]) -> list[Finding]:
    """Lint an in-memory ``{path: source}`` mapping; returns findings.

    The path decides each file's module name (and therefore which rules
    apply), so tests can exercise scoped rules with virtual paths like
    ``src/repro/serve/fixture.py``.
    """
    rules = rule_registry()
    sources = [parse_source(path, text) for path, text in sorted(files.items())]
    findings: list[Finding] = []
    for source in sources:
        findings.extend(_pragma_findings(source, set(rules)))
        for rule in rules.values():
            if rule.applies(source.module):
                findings.extend(rule.check(source))
    for rule in rules.values():
        scoped = [source for source in sources if rule.applies(source.module)]
        if scoped:
            findings.extend(rule.check_project(scoped))
    suppressed = {
        source.path: source.ignores for source in sources
    }
    kept = [
        finding for finding in findings
        if finding.rule not in suppressed.get(finding.path, {}).get(finding.line, set())
    ]
    return sorted(kept, key=lambda f: (f.path, f.line, f.col, f.rule))


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``*.py`` under ``paths``, skipping caches and hidden dirs."""
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            yield str(root)
            continue
        for path in sorted(root.rglob("*.py")):
            parts = set(path.parts)
            if "__pycache__" in parts or any(p.startswith(".") for p in path.parts):
                continue
            yield str(path)


def lint_paths(paths: Iterable[str]) -> list[Finding]:
    """Lint every python file under ``paths`` on disk."""
    files: dict[str, str] = {}
    for path in iter_python_files(paths):
        files[path] = Path(path).read_text()
    return lint_files(files)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Repo-specific invariant linter (rules REP001-REP009).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for name, rule in sorted(rule_registry().items()):
            print(f"{name}  {rule.summary}")
        return 0
    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding.format())
    if findings:
        print(
            f"repro-lint: {len(findings)} finding(s); suppress a deliberate one "
            "with `# repro: lint-ignore[RULE]` on the flagged line",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    # Delegate to the canonical module: `python -m` executes this file
    # as `__main__`, and rules must register against the registry the
    # engine actually consults — not a second copy of it.
    from repro.analysis.lint import main as canonical_main

    raise SystemExit(canonical_main())
