"""The built-in rule catalog: REP001-REP009.

Each rule states one invariant the simulated train/serve stack rests on
and generic linters cannot express.  Rules scope themselves by module
name (``repro.kv.*``, ``repro.serve.*``, ...), so test/benchmark code is
never in scope; a deliberate exception in scope is suppressed with
``# repro: lint-ignore[RULE]`` on the flagged line.

REP001  simulated-clock purity: no wall clock, no ambient entropy.
REP002  KVStore contract completeness for every engine under ``kv/``.
REP003  layering: serve/ and train/dist/ reach storage only through
        ``repro.kv`` public names; core/ never imports serve/.
REP004  no swallowed broad exceptions in crash-safety-critical modules.
REP005  no iteration over set values (replay/fan-out nondeterminism).
REP006  hot-path instrumentation goes through ``repro.obs`` spans and
        the owner's stats, never ad-hoc ``print``/stdout writes.
REP007  every public class and function on the documented API surfaces
        (``repro.kv``, ``repro.serve``, ``repro.obs``,
        ``repro.train.dist``) carries a docstring.
REP008  key sets are deduplicated with ``repro._arrays.sorted_unique``:
        no bare ``np.unique`` (numpy's hashing path) outside that module.
REP009  no unused import, in every linted file (``make lint`` holds the
        tree without ruff or pyflakes installed).
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath
from typing import Iterable, Iterator, Optional

from repro.analysis.lint import Finding, LintRule, SourceFile, register

# ----------------------------------------------------------------------
# REP001 — simulated components must not read wall clocks or ambient
# entropy: all time flows from device/clock.py timelines, all randomness
# from seeded generators (random.Random / np.random.default_rng(seed)).
# ----------------------------------------------------------------------

_WALL_CLOCK_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
}
_DATETIME_FUNCS = {"now", "utcnow", "today"}
#: The only attribute of the ``random`` module simulated code may touch:
#: an explicitly seeded generator instance.
_RANDOM_ALLOWED = {"Random"}

#: The bench scope's wall-clock allowlist: real-time *measurement* needs
#: ``perf_counter``; everything else (``time.time``, ``monotonic``,
#: ``sleep``, ...) stays banned even there — a bench that sleeps or
#: reads calendar time is either flaky or lying about the timeline.
#: The same allowlist covers ``repro.obs``: dual-clock spans measure
#: wall time next to the simulated timeline.
_BENCH_WALL_ALLOWED = {"perf_counter", "perf_counter_ns"}


def _bench_scope(source: SourceFile) -> bool:
    """Whether ``source`` belongs to a wall-clock-measuring tier: the
    ``repro.bench`` package, the ``repro.obs`` observability substrate
    (dual-clock tracing), or a file under ``benchmarks/``."""
    if source.module is not None and (
        source.module.startswith("repro.bench")
        or source.module == "repro.obs"
        or source.module.startswith("repro.obs.")
    ):
        return True
    return "benchmarks" in PurePath(source.path).parts


@register
class SimulatedClockPurity(LintRule):
    name = "REP001"
    summary = (
        "no wall-clock or ambient entropy in simulated components "
        "(use SimClock timelines and seeded random.Random); the bench "
        "tier and repro.obs may use time.perf_counter for real-time "
        "measurement"
    )

    def applies(self, module: Optional[str]) -> bool:
        # Unlike the other rules this one also accepts module-less files,
        # so the wall-clock discipline covers ``benchmarks/``; check()
        # skips module-less files outside that tree itself.
        return super().applies(module) or module is None

    def check(self, source: SourceFile) -> Iterator[Finding]:
        bench = _bench_scope(source)
        if source.module is None and not bench:
            return  # tests/examples: out of scope, as before
        allowed = _BENCH_WALL_ALLOWED if bench else frozenset()
        # Aliases under which the banned modules are imported here; a
        # local variable merely *named* ``time`` never trips the rule.
        time_aliases: set[str] = set()
        random_aliases: set[str] = set()
        datetime_aliases: set[str] = set()  # datetime/date classes + module
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = alias.asname or alias.name
                    if alias.name == "time":
                        time_aliases.add(target)
                    elif alias.name == "random":
                        random_aliases.add(target)
                    elif alias.name == "datetime":
                        datetime_aliases.add(target)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_FUNCS - allowed:
                            yield source.finding(
                                self.name, node,
                                f"wall-clock import `time.{alias.name}`: simulated "
                                "components take time from a SimClock timeline",
                            )
                elif node.module == "random":
                    for alias in node.names:
                        if alias.name not in _RANDOM_ALLOWED:
                            yield source.finding(
                                self.name, node,
                                f"entropy import `random.{alias.name}`: use a "
                                "seeded random.Random instance",
                            )
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_aliases.add(alias.asname or alias.name)
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in time_aliases and func.attr in _WALL_CLOCK_FUNCS - allowed:
                    yield source.finding(
                        self.name, node,
                        f"wall-clock call `{base.id}.{func.attr}()`: simulated "
                        "components take time from a SimClock timeline",
                    )
                elif base.id in random_aliases and func.attr not in _RANDOM_ALLOWED:
                    yield source.finding(
                        self.name, node,
                        f"module-level entropy `{base.id}.{func.attr}()`: use a "
                        "seeded random.Random instance",
                    )
                elif base.id in datetime_aliases and func.attr in _DATETIME_FUNCS:
                    yield source.finding(
                        self.name, node,
                        f"wall-clock call `{base.id}.{func.attr}()`: simulated "
                        "components take time from a SimClock timeline",
                    )
                elif base.id == "os" and func.attr == "urandom":
                    yield source.finding(
                        self.name, node,
                        "ambient entropy `os.urandom()`: use a seeded generator",
                    )
            elif (
                isinstance(base, ast.Attribute)
                and base.attr == "datetime"
                and isinstance(base.value, ast.Name)
                and base.value.id in datetime_aliases
                and func.attr in _DATETIME_FUNCS
            ):
                yield source.finding(
                    self.name, node,
                    f"wall-clock call `datetime.datetime.{func.attr}()`: simulated "
                    "components take time from a SimClock timeline",
                )


# ----------------------------------------------------------------------
# REP002 — every concrete engine under kv/ must carry the full KVStore
# contract, implemented or *concretely* inherited, with compatible
# signatures.  A missing override silently falls back to per-key loops
# (a perf cliff) or raises at runtime (a durability hole).
# ----------------------------------------------------------------------

#: method -> required parameter names after self/cls.  Extra parameters
#: are compatible only when they carry defaults (or are *args/**kwargs).
_CONTRACT: dict[str, list[str]] = {
    "multi_get": ["keys"],
    "multi_put": ["keys", "values"],
    "get_rows": ["keys", "out"],
    "put_rows": ["keys", "rows"],
    "snapshot_read_many": ["keys"],
    "lookahead": ["keys"],
    "lookahead_capacity": ["value_bytes"],
    "set_stall_handler": ["handler"],
    "freeze": [],
    "checkpoint": [],
    "restore": ["directory"],
}


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _is_abstract_def(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator
        if isinstance(target, ast.Call):
            target = target.func
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None
        )
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _method_defs(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _signature_problem(method: ast.FunctionDef, required: list[str]) -> Optional[str]:
    args = method.args
    params = [arg.arg for arg in args.posonlyargs + args.args]
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    defaults = len(args.defaults)
    required_count = len(params) - defaults  # params without a default
    for index, name in enumerate(required):
        if index < len(params):
            if params[index] != name:
                return (
                    f"parameter {index + 1} is {params[index]!r}, contract "
                    f"names it {name!r}"
                )
        elif args.vararg is None and args.kwarg is None:
            return f"missing contract parameter {name!r}"
    if required_count > len(required):
        extra = params[len(required):required_count]
        return f"extra required parameter(s) {extra} beyond the contract"
    return None


@register
class KVContractCompleteness(LintRule):
    name = "REP002"
    summary = (
        "every concrete engine under kv/ implements or concretely inherits "
        "the full KVStore contract with compatible signatures"
    )

    def applies(self, module: Optional[str]) -> bool:
        return module is not None and (
            module == "repro.kv" or module.startswith("repro.kv.")
        )

    def check_project(self, sources: list[SourceFile]) -> Iterator[Finding]:
        classes: dict[str, tuple[SourceFile, ast.ClassDef]] = {}
        for source in sources:
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = (source, node)

        def ancestry(name: str, seen: frozenset[str] = frozenset()) -> Iterator[str]:
            """Class plus in-project bases, nearest first (cycle-safe)."""
            if name in seen or name not in classes:
                return
            yield name
            for base in _base_names(classes[name][1]):
                yield from ancestry(base, seen | {name})

        def descends_from_kvstore(name: str) -> bool:
            return "KVStore" in ancestry(name)

        def resolve(name: str, method: str) -> Optional[ast.FunctionDef]:
            for ancestor in ancestry(name):
                defs = _method_defs(classes[ancestor][1])
                if method in defs:
                    return defs[method]
            return None

        for name, (source, node) in sorted(classes.items()):
            if name == "KVStore" or not descends_from_kvstore(name):
                continue
            own_defs = _method_defs(node)
            if any(_is_abstract_def(d) for d in own_defs.values()):
                continue  # abstract intermediary, not an engine
            if any(base in ("ABC", "Protocol") for base in _base_names(node)):
                continue
            for method, required in _CONTRACT.items():
                found = resolve(name, method)
                if found is None:
                    yield source.finding(
                        self.name, node,
                        f"engine {name} neither implements nor inherits "
                        f"KVStore contract method `{method}`",
                    )
                    continue
                if _is_abstract_def(found):
                    yield source.finding(
                        self.name, node,
                        f"engine {name} inherits only an abstract `{method}`; "
                        "a concrete implementation is required",
                    )
                    continue
                problem = _signature_problem(found, required)
                if problem is not None and method in own_defs:
                    yield source.finding(
                        self.name, found,
                        f"{name}.{method} signature incompatible with the "
                        f"KVStore contract: {problem}",
                    )


# ----------------------------------------------------------------------
# REP003 — layering.  The serving tier and the distributed trainer are
# engine-agnostic by design: they reach storage only through repro.kv
# re-exports, so an engine-internal refactor can never ripple upward.
# core/ sits below serve/ and must never import it.
# ----------------------------------------------------------------------

_KV_FACADE = "repro.kv"
_KV_SUBMODULES = {
    "api", "btree", "common", "faster", "lsm", "replicated", "sharded",
}


@register
class StorageLayering(LintRule):
    name = "REP003"
    summary = (
        "serve/ and train/dist/ import storage only through repro.kv "
        "public names; core/ never imports serve/"
    )

    def applies(self, module: Optional[str]) -> bool:
        if module is None:
            return False
        return (
            module.startswith("repro.serve")
            or module.startswith("repro.train.dist")
            or module.startswith("repro.core")
        )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        module = source.module or ""
        upper_layer = module.startswith("repro.serve") or module.startswith(
            "repro.train.dist"
        )
        for node in ast.walk(source.tree):
            targets: list[tuple[ast.AST, str]] = []
            if isinstance(node, ast.Import):
                targets = [(node, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                targets = [(node, node.module)]
                if upper_layer and node.module == _KV_FACADE:
                    for alias in node.names:
                        if alias.name in _KV_SUBMODULES:
                            yield source.finding(
                                self.name, node,
                                f"`from repro.kv import {alias.name}` reaches an "
                                "engine submodule; import its public names from "
                                "repro.kv instead",
                            )
            for target_node, target in targets:
                if upper_layer and target.startswith(_KV_FACADE + "."):
                    yield source.finding(
                        self.name, target_node,
                        f"{module} imports storage internals `{target}`; the "
                        "serving/distributed layers use repro.kv public names "
                        "only",
                    )
                if module.startswith("repro.core") and (
                    target == "repro.serve" or target.startswith("repro.serve.")
                ):
                    yield source.finding(
                        self.name, target_node,
                        f"core layer imports the serving tier (`{target}`); "
                        "core/ must stay below serve/",
                    )


# ----------------------------------------------------------------------
# REP004 — crash-safety-critical modules must not swallow broad
# exceptions: a silenced Exception in a WAL/flush/manifest path turns a
# detectable crash into silent data loss.
# ----------------------------------------------------------------------

_BROAD = {"Exception", "BaseException"}


def _is_broad(expr: Optional[ast.expr]) -> bool:
    if expr is None:
        return True  # bare except:
    if isinstance(expr, ast.Name):
        return expr.id in _BROAD
    if isinstance(expr, ast.Attribute):
        return expr.attr in _BROAD
    if isinstance(expr, ast.Tuple):
        return any(_is_broad(element) for element in expr.elts)
    return False


@register
class NoSwallowedBroadExceptions(LintRule):
    name = "REP004"
    summary = (
        "no swallowed broad exceptions in crash-safety-critical modules "
        "(kv/, core/checkpoint)"
    )

    def applies(self, module: Optional[str]) -> bool:
        if module is None:
            return False
        return (
            module == "repro.kv"
            or module.startswith("repro.kv.")
            or module == "repro.core.checkpoint"
        )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node.type):
                continue
            reraises = any(
                isinstance(sub, ast.Raise)
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            if not reraises:
                label = "bare except" if node.type is None else "broad except"
                yield source.finding(
                    self.name, node,
                    f"{label} swallows errors in a crash-safety-critical "
                    "module; catch the specific error or re-raise",
                )


# ----------------------------------------------------------------------
# REP005 — set iteration order varies across processes (PYTHONHASHSEED),
# so a set feeding writes, fan-out order, or telemetry makes runs
# unreplayable.  Sort the set first; sorted(set_expr) never flags.
# ----------------------------------------------------------------------

_SET_METHODS = {"intersection", "union", "difference", "symmetric_difference"}
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in _SET_METHODS:
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class NoSetIteration(LintRule):
    name = "REP005"
    summary = (
        "no iteration over set values (nondeterministic order breaks "
        "replay); wrap the set in sorted(...)"
    )

    _MESSAGE = (
        "iterating a set has nondeterministic order (writes, fan-out and "
        "telemetry become unreplayable); iterate sorted(...) instead"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield source.finding(self.name, node.iter, self._MESSAGE)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if _is_set_expr(generator.iter):
                        yield source.finding(self.name, generator.iter, self._MESSAGE)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and node.args
                and _is_set_expr(node.args[0])
            ):
                yield source.finding(
                    self.name, node,
                    f"`{node.func.id}(...)` over a set materializes a "
                    "nondeterministic order; use sorted(...)",
                )


# ----------------------------------------------------------------------
# REP006 — hot-path modules route instrumentation through repro.obs.
# An ad-hoc print() (or raw stdout/stderr write) in a storage, serving,
# device, or training module costs string formatting even when nobody is
# observing, skews wall-clock benches, and scatters telemetry that has
# two homes: a timing is a repro.obs span (one shared no-op while no
# tracer is installed, so it is free), a count is a field of its owner's
# stats, which the MetricsRegistry reads at export time.
# ----------------------------------------------------------------------

_HOT_PATH_PREFIXES = (
    "repro.kv",
    "repro.core",
    "repro.serve",
    "repro.train",
    "repro.device",
)
_STD_STREAMS = {"stdout", "stderr"}


@register
class InstrumentationViaObs(LintRule):
    name = "REP006"
    summary = (
        "hot-path modules (kv/, core/, serve/, train/, device/) time with "
        "repro.obs spans and count in their owner's stats; no ad-hoc "
        "print or raw stdout/stderr writes"
    )

    def applies(self, module: Optional[str]) -> bool:
        return module is not None and any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in _HOT_PATH_PREFIXES
        )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield source.finding(
                    self.name, node,
                    "ad-hoc `print()` in a hot-path module; time it with a "
                    "repro.obs span (a no-op while no tracer is installed) "
                    "or count it in the owner's stats",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "write"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in _STD_STREAMS
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "sys"
            ):
                yield source.finding(
                    self.name, node,
                    f"raw `sys.{func.value.attr}.write()` in a hot-path "
                    "module; use a repro.obs span or the owner's stats",
                )


# ----------------------------------------------------------------------
# REP007 — the storage, serving, observability and distributed-training
# packages are the repo's documented API surfaces: operators follow
# docs/OPERATIONS.md into these modules, and an undocumented public name
# is an API the next reader has to reverse-engineer.  Private names
# (leading underscore, which covers dunders), property setters/deleters
# (the getter carries the doc) and typing overloads are out of scope.
# ----------------------------------------------------------------------

_DOCUMENTED_PREFIXES = ("repro.kv", "repro.serve", "repro.obs", "repro.train.dist")


def _is_setter_or_deleter(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(decorator, ast.Attribute)
        and decorator.attr in ("setter", "deleter")
        for decorator in node.decorator_list
    )


def _is_overload(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None
        )
        if name == "overload":
            return True
    return False


@register
class PublicDocstrings(LintRule):
    name = "REP007"
    summary = (
        "every public class and function in repro.kv / repro.serve / "
        "repro.obs / repro.train.dist carries a docstring"
    )

    def applies(self, module: Optional[str]) -> bool:
        return module is not None and any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in _DOCUMENTED_PREFIXES
        )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        yield from self._check_body(source, source.tree.body, owner=None)

    def _check_body(
        self, source: SourceFile, body: list[ast.stmt], owner: Optional[str]
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if node.name.startswith("_"):
                    continue
                if ast.get_docstring(node) is None:
                    yield source.finding(
                        self.name, node,
                        f"public class `{node.name}` has no docstring; this "
                        "package is a documented API surface",
                    )
                yield from self._check_body(source, node.body, owner=node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (
                    node.name.startswith("_")
                    or _is_setter_or_deleter(node)
                    or _is_overload(node)
                ):
                    continue
                if ast.get_docstring(node) is None:
                    label = f"{owner}.{node.name}" if owner else node.name
                    kind = "method" if owner else "function"
                    yield source.finding(
                        self.name, node,
                        f"public {kind} `{label}` has no docstring; this "
                        "package is a documented API surface",
                    )


# ----------------------------------------------------------------------
# REP008 — one dedupe.  On numpy 2.4 a bare ``np.unique(x)`` takes a
# hashing path about eleven times slower than one sort plus an
# adjacent-difference mask, which is what ``repro._arrays.sorted_unique``
# does.  Asking for indices, an inverse, counts or an axis selects the
# sort path, so only the bare form is flagged; the helper's own module is
# the one place that may call it.
# ----------------------------------------------------------------------

_DEDUPE_MODULE = "repro._arrays"


def _selects_sort_path(call: ast.Call) -> bool:
    """Whether a ``unique`` call asks for more than the values (a second
    positional argument, any ``return_*``/``axis``, or ``**kwargs``)."""
    return len(call.args) > 1 or any(
        keyword.arg is None or keyword.arg == "axis" or keyword.arg.startswith("return_")
        for keyword in call.keywords
    )


@register
class OneDedupe(LintRule):
    name = "REP008"
    summary = (
        "no bare np.unique(x) under repro (numpy's hashing path); "
        "deduplicate with repro._arrays.sorted_unique"
    )

    def applies(self, module: Optional[str]) -> bool:
        return super().applies(module) and module != _DEDUPE_MODULE

    def check(self, source: SourceFile) -> Iterator[Finding]:
        numpy_aliases: set[str] = set()
        unique_aliases: set[str] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                numpy_aliases.update(
                    alias.asname or alias.name for alias in node.names if alias.name == "numpy"
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy" and node.level == 0:
                unique_aliases.update(
                    alias.asname or alias.name for alias in node.names if alias.name == "unique"
                )
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) or _selects_sort_path(node):
                continue
            func = node.func
            bare = (
                isinstance(func, ast.Attribute)
                and func.attr == "unique"
                and isinstance(func.value, ast.Name)
                and func.value.id in numpy_aliases
            ) or (isinstance(func, ast.Name) and func.id in unique_aliases)
            if bare:
                yield source.finding(
                    self.name, node,
                    "bare `np.unique()` takes numpy's hashing path; deduplicate "
                    "with repro._arrays.sorted_unique (one sort)",
                )


# ----------------------------------------------------------------------
# REP009 — no unused import.  A dead import is a dependency the module
# does not have: it slows start-up, hides a real one when the name is
# later used by mistake, and misleads the next reader.  ruff / pyflakes
# flag it too, but neither is installed everywhere ``make lint`` runs,
# so this rule runs on every linted file.  A name counts as used when
# any expression of the file, a string annotation included, names it.
# Exempt: ``__init__.py`` (re-exports), ``from __future__``, names in
# ``__all__`` and lines marked ``# noqa: F401`` (a side-effect import).
# ----------------------------------------------------------------------

_NOQA_F401 = re.compile(r"#\s*noqa:[^#]*\bF401\b")


def _bound_names(node: ast.Import | ast.ImportFrom) -> Iterator[tuple[str, str]]:
    """``(bound name, imported name)`` for each alias of an import."""
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname is not None:
            yield alias.asname, alias.name
        else:
            yield alias.name.split(".")[0], alias.name


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of every ``__all__`` assignment."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) and node.value:
                names.update(
                    item.value for item in ast.walk(node.value)
                    if isinstance(item, ast.Constant) and isinstance(item.value, str)
                )
    return names


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the file's expressions load, string annotations parsed."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


@register
class NoUnusedImport(LintRule):
    name = "REP009"
    summary = (
        "no unused import (package __init__ re-exports, __future__, "
        "__all__ names and `# noqa: F401` lines exempt)"
    )

    def applies(self, module: Optional[str]) -> bool:
        return True

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if PurePath(source.path).name == "__init__.py":
            return
        lines = source.text.splitlines()
        used = _used_names(source.tree) | _exported(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1:node.end_lineno]
            if any(_NOQA_F401.search(line) for line in span):
                continue
            for bound, imported in _bound_names(node):
                if bound not in used:
                    yield source.finding(
                        self.name, node, f"`{imported}` imported but unused",
                    )


__all__: Iterable[str] = [
    "InstrumentationViaObs",
    "KVContractCompleteness",
    "NoSetIteration",
    "NoSwallowedBroadExceptions",
    "NoUnusedImport",
    "OneDedupe",
    "PublicDocstrings",
    "SimulatedClockPurity",
    "StorageLayering",
]
