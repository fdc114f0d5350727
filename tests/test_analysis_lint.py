"""The repo linter (repro.analysis.lint): every rule proven live.

Each rule gets paired fixtures — one the rule must flag, one it must
pass, one where a ``# repro: lint-ignore[...]`` pragma suppresses the
finding — so a rule that silently stops firing (or starts over-firing)
breaks a test, not just CI hygiene.  The identity test at the end lints
the real source tree and asserts it is clean: the linter gates `make
lint`, so the repo must satisfy its own rules.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_files, lint_paths, rule_registry
from repro.analysis.lint import main, module_name_for

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(text, path="src/repro/snippet.py"):
    """Lint one source string under a virtual path."""
    return lint_files({path: text})


def rules_of(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# engine plumbing
# ----------------------------------------------------------------------
class TestEngine:
    def test_registry_has_the_catalog(self):
        names = set(rule_registry())
        assert {
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
            "REP007", "REP008", "REP009",
        } <= names

    def test_module_name_mapping(self):
        assert module_name_for("src/repro/kv/api.py") == "repro.kv.api"
        assert module_name_for("src/repro/serve/__init__.py") == "repro.serve"
        assert module_name_for("tests/test_mlkv.py") is None
        assert module_name_for("benchmarks/test_serving.py") is None

    def test_unknown_rule_pragma_is_a_finding(self):
        findings = lint_source("x = 1  # repro: lint-ignore[REP999]\n")
        assert rules_of(findings) == ["REP000"]
        assert "unknown rule" in findings[0].message

    def test_malformed_pragma_is_a_finding(self):
        findings = lint_source("x = 1  # repro: lint-ignore REP005 oops\n")
        assert rules_of(findings) == ["REP000"]

    def test_pragma_text_inside_a_docstring_is_inert(self):
        findings = lint_source(
            '"""Docs showing `# repro: lint-ignore[NOPE]` syntax."""\nx = 1\n'
        )
        assert findings == []

    def test_cli_list_rules_and_clean_exit(self, tmp_path, capsys):
        assert main(["--list-rules"]) == 0
        assert "REP005" in capsys.readouterr().out
        clean = tmp_path / "repro" / "ok.py"
        clean.parent.mkdir()
        clean.write_text("for x in sorted({1, 2}):\n    pass\n")
        assert main([str(clean)]) == 0

    def test_cli_exits_nonzero_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("for x in {1, 2}:\n    pass\n")
        assert main([str(bad)]) == 1
        assert "REP005" in capsys.readouterr().out


# ----------------------------------------------------------------------
# REP001 — simulated-clock purity
# ----------------------------------------------------------------------
class TestRep001ClockPurity:
    def test_flags_wall_clock_and_ambient_entropy(self):
        findings = lint_source(
            "import os\n"
            "import time\n"
            "import random\n"
            "start = time.monotonic()\n"
            "jitter = random.random()\n"
            "token = os.urandom(8)\n"
        )
        assert rules_of(findings) == ["REP001", "REP001", "REP001"]

    def test_flags_from_imports_and_datetime_now(self):
        findings = lint_source(
            "from time import sleep  # noqa: F401\n"
            "from datetime import datetime\n"
            "stamp = datetime.now()\n"
        )
        assert rules_of(findings) == ["REP001", "REP001"]

    def test_passes_simclock_and_seeded_generators(self):
        findings = lint_source(
            "import random\n"
            "from repro.device.clock import SimClock\n"
            "clock = SimClock()\n"
            "clock.advance(1.0)\n"
            "rng = random.Random(7)\n"
            "value = rng.random()\n"  # method on a seeded instance
        )
        assert findings == []

    def test_local_name_time_never_trips(self):
        findings = lint_source("time = object()\nresult = []\n")
        assert findings == []

    def test_pragma_suppresses(self):
        findings = lint_source(
            "import time\n"
            "start = time.monotonic()  # repro: lint-ignore[REP001] host profiling\n"
        )
        assert findings == []


class TestRep001BenchAllowlist:
    """The bench tier (benchmarks/ + repro.bench.*) may read
    ``time.perf_counter`` for real-time measurement; everything else in
    the wall-clock vocabulary stays banned there, and module-less files
    outside benchmarks/ stay out of scope entirely."""

    def test_perf_counter_allowed_in_benchmarks_dir(self):
        findings = lint_source(
            "import time\n"
            "elapsed = time.perf_counter()\n"
            "ns = time.perf_counter_ns()\n",
            path="benchmarks/test_wallclock.py",
        )
        assert findings == []

    def test_perf_counter_allowed_in_repro_bench(self):
        findings = lint_source(
            "from time import perf_counter\n"
            "start = perf_counter()\n",
            path="src/repro/bench/wallclock.py",
        )
        assert findings == []

    def test_time_time_still_flagged_in_bench_scope(self):
        findings = lint_source(
            "import time\n"
            "stamp = time.time()\n"
            "time.sleep(0.1)\n"
            "tick = time.monotonic()\n",
            path="benchmarks/test_wallclock.py",
        )
        assert rules_of(findings) == ["REP001", "REP001", "REP001"]

    def test_sleep_from_import_flagged_in_bench_scope(self):
        findings = lint_source(
            "from time import perf_counter, sleep  # noqa: F401\n",
            path="benchmarks/test_wallclock.py",
        )
        assert rules_of(findings) == ["REP001"]
        assert "sleep" in findings[0].message

    def test_perf_counter_still_flagged_outside_bench_scope(self):
        findings = lint_source(
            "import time\n"
            "start = time.perf_counter()\n",
            path="src/repro/kv/lsm/wal.py",
        )
        assert rules_of(findings) == ["REP001"]

    def test_module_less_non_benchmark_files_stay_skipped(self):
        findings = lint_source(
            "import time\n"
            "start = time.time()\n",
            path="tests/test_something.py",
        )
        assert findings == []

    def test_pragma_still_works_in_bench_scope(self):
        findings = lint_source(
            "import time\n"
            "now = time.time()  # repro: lint-ignore[REP001] wall stamp in meta\n",
            path="benchmarks/test_wallclock.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP002 — KV contract completeness
# ----------------------------------------------------------------------
#: Minimal in-memory stand-in for repro/kv/api.py: KVStore with the
#: batched contract concrete but checkpoint/restore left to engines —
#: the same shape as the real interface.
_API_STUB = """
from abc import ABC, abstractmethod

class KVStore(ABC):
    '''Contract stub.'''
    @abstractmethod
    def get(self, key):
        '''Read.'''
    def multi_get(self, keys):
        '''Batched read.'''
    def multi_put(self, keys, values):
        '''Batched write.'''
    def get_rows(self, keys, out):
        '''Batched read into a matrix.'''
    def put_rows(self, keys, rows):
        '''Batched write of a matrix.'''
    def snapshot_read_many(self, keys):
        '''Committed reads.'''
    def lookahead(self, keys):
        '''Stage nothing.'''
    def lookahead_capacity(self, value_bytes):
        '''Hold nothing.'''
    def set_stall_handler(self, handler):
        '''Ignore the hook.'''
    def freeze(self):
        '''Freeze.'''
"""

_COMPLETE_ENGINE = """
from repro.kv.api import KVStore

class GoodKV(KVStore):
    '''Complete engine.'''
    def get(self, key):
        '''Read.'''
    def checkpoint(self):
        '''Persist.'''
    @classmethod
    def restore(cls, directory, **kwargs):
        '''Reload.'''
"""


class TestRep002ContractCompleteness:
    def lint(self, engine_source: str):
        return lint_files({
            "src/repro/kv/api.py": _API_STUB,
            "src/repro/kv/fixture.py": engine_source,
        })

    def test_passes_complete_engine(self):
        assert self.lint(_COMPLETE_ENGINE) == []

    def test_flags_missing_contract_methods(self):
        findings = self.lint(
            "from repro.kv.api import KVStore\n"
            "class BareKV(KVStore):\n"
            "    '''Engine.'''\n"
            "    def get(self, key):\n"
            "        '''Read.'''\n"
        )
        assert rules_of(findings) == ["REP002", "REP002"]
        messages = " | ".join(finding.message for finding in findings)
        assert "`checkpoint`" in messages and "`restore`" in messages

    def test_flags_incompatible_signature(self):
        findings = self.lint(
            "from repro.kv.api import KVStore\n"
            "class RenamedKV(KVStore):\n"
            "    '''Engine.'''\n"
            "    def get(self, key):\n"
            "        '''Read.'''\n"
            "    def multi_get(self, ids):\n"
            "        '''Batched read.'''\n"
            "    def checkpoint(self):\n"
            "        '''Persist.'''\n"
            "    @classmethod\n"
            "    def restore(cls, directory, **kwargs):\n"
            "        '''Reload.'''\n"
        )
        assert rules_of(findings) == ["REP002"]
        assert "contract names it 'keys'" in findings[0].message

    def test_flags_an_array_verb_overridden_with_another_signature(self):
        findings = self.lint(
            _COMPLETE_ENGINE
            + "    def get_rows(self, keys):\n"
            "        '''Rows out, but returned instead of filled.'''\n"
            "    def put_rows(self, keys, values):\n"
            "        '''Rows in, under the list verb's name.'''\n"
        )
        assert rules_of(findings) == ["REP002", "REP002"]
        assert "get_rows" in findings[0].message and "put_rows" in findings[1].message

    def test_flags_a_capability_overridden_with_another_signature(self):
        findings = self.lint(
            _COMPLETE_ENGINE
            + "    def lookahead(self, keys, dest):\n"
            "        '''A destination no caller passes.'''\n"
            "    def set_stall_handler(self, on_stall):\n"
            "        '''The hook under another name.'''\n"
            "    def lookahead_capacity(self):\n"
            "        '''A capacity that forgot the record width.'''\n"
        )
        assert rules_of(findings) == ["REP002", "REP002", "REP002"]
        assert "lookahead" in findings[0].message
        assert "set_stall_handler" in findings[1].message
        assert "lookahead_capacity" in findings[2].message

    def test_extra_params_need_defaults(self):
        flagged = self.lint(
            "from repro.kv.api import KVStore\n"
            "class StrictKV(KVStore):\n"
            "    '''Engine.'''\n"
            "    def get(self, key):\n"
            "        '''Read.'''\n"
            "    def checkpoint(self, fsync):\n"
            "        '''Persist.'''\n"
            "    @classmethod\n"
            "    def restore(cls, directory, **kwargs):\n"
            "        '''Reload.'''\n"
        )
        assert rules_of(flagged) == ["REP002"]
        passed = self.lint(
            "from repro.kv.api import KVStore\n"
            "class DefaultedKV(KVStore):\n"
            "    '''Engine.'''\n"
            "    def get(self, key):\n"
            "        '''Read.'''\n"
            "    def checkpoint(self, fsync=True):\n"
            "        '''Persist.'''\n"
            "    @classmethod\n"
            "    def restore(cls, directory, **kwargs):\n"
            "        '''Reload.'''\n"
        )
        assert passed == []

    def test_concrete_inheritance_satisfies_the_contract(self):
        findings = lint_files({
            "src/repro/kv/api.py": _API_STUB,
            "src/repro/kv/base.py": _COMPLETE_ENGINE,
            "src/repro/kv/child.py": (
                "from repro.kv.base import GoodKV\n"
                "class TunedKV(GoodKV):\n"
                "    '''Engine.'''\n"
                "    def get(self, key):\n"
                "        '''Read.'''\n"
            ),
        })
        assert findings == []

    def test_abstract_intermediaries_are_skipped(self):
        findings = self.lint(
            "from abc import abstractmethod\n"
            "from repro.kv.api import KVStore\n"
            "class PartialKV(KVStore):\n"
            "    '''Intermediary.'''\n"
            "    @abstractmethod\n"
            "    def flush(self):\n"
            "        '''Flush.'''\n"
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = self.lint(
            "from repro.kv.api import KVStore\n"
            "class MemoKV(KVStore):  # repro: lint-ignore[REP002] in-memory only\n"
            "    '''Engine.'''\n"
            "    def get(self, key):\n"
            "        '''Read.'''\n"
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP003 — storage layering
# ----------------------------------------------------------------------
class TestRep003Layering:
    def test_flags_serve_importing_engine_internals(self):
        findings = lint_source(
            "from repro.kv.lsm import LSMStore  # noqa: F401\n",
            path="src/repro/serve/fixture.py",
        )
        assert rules_of(findings) == ["REP003"]

    def test_flags_submodule_import_from_facade(self):
        findings = lint_source(
            "from repro.kv import faster  # noqa: F401\n",
            path="src/repro/train/dist/fixture.py",
        )
        assert rules_of(findings) == ["REP003"]

    def test_passes_facade_public_names(self):
        findings = lint_source(
            "from repro.kv import KVStore, ReplicaGroup, decode_vector  # noqa: F401\n",
            path="src/repro/serve/fixture.py",
        )
        assert findings == []

    def test_core_must_not_import_serve(self):
        findings = lint_source(
            "from repro.serve.server import EmbeddingServer  # noqa: F401\n",
            path="src/repro/core/fixture.py",
        )
        assert rules_of(findings) == ["REP003"]

    def test_lower_layers_may_import_engines(self):
        # core/ composes engines directly (Open() builds them); only the
        # serving/distributed layers are facade-bound.
        findings = lint_source(
            "from repro.kv.faster import FasterKV  # noqa: F401\n",
            path="src/repro/core/fixture.py",
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = lint_source(
            "from repro.kv.lsm import LSMStore"
            "  # repro: lint-ignore[REP003] perf experiment  # noqa: F401\n",
            path="src/repro/serve/fixture.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP004 — no swallowed broad exceptions in crash-safety-critical code
# ----------------------------------------------------------------------
class TestRep004SwallowedExceptions:
    PATH = "src/repro/kv/fixture.py"

    def test_flags_swallowed_exception(self):
        findings = lint_source(
            "def flush(wal):\n"
            "    '''Flush.'''\n"
            "    try:\n"
            "        wal.sync()\n"
            "    except Exception:\n"
            "        pass\n",
            path=self.PATH,
        )
        assert rules_of(findings) == ["REP004"]

    def test_flags_bare_except(self):
        findings = lint_source(
            "try:\n    work()\nexcept:\n    pass\n", path=self.PATH
        )
        assert rules_of(findings) == ["REP004"]

    def test_reraise_passes(self):
        findings = lint_source(
            "def flush(wal, log):\n"
            "    '''Flush.'''\n"
            "    try:\n"
            "        wal.sync()\n"
            "    except Exception as error:\n"
            "        log.error(error)\n"
            "        raise\n",
            path=self.PATH,
        )
        assert findings == []

    def test_specific_exceptions_pass(self):
        findings = lint_source(
            "def probe(path):\n"
            "    '''Probe.'''\n"
            "    try:\n"
            "        return open(path)\n"
            "    except FileNotFoundError:\n"
            "        return None\n",
            path=self.PATH,
        )
        assert findings == []

    def test_out_of_scope_modules_are_not_checked(self):
        findings = lint_source(
            "try:\n    work()\nexcept Exception:\n    pass\n",
            path="src/repro/serve/fixture.py",
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = lint_source(
            "try:\n"
            "    work()\n"
            "except Exception:  # repro: lint-ignore[REP004] best-effort stats\n"
            "    pass\n",
            path=self.PATH,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP005 — no iteration over set values
# ----------------------------------------------------------------------
class TestRep005SetIteration:
    def test_flags_for_loop_over_set(self):
        findings = lint_source("for key in {1, 2}:\n    print(key)\n")
        assert rules_of(findings) == ["REP005"]

    def test_flags_comprehension_and_materialization(self):
        # The rule is syntactic: it recognizes set *expressions* (display
        # literals, set()/frozenset() calls, set methods, set-algebra
        # binops), not variables that happen to hold sets.
        findings = lint_source(
            "hints = set()\n"
            "replay = [k for k in set(range(3))]\n"
            "order = list(hints & {1, 2})\n"
        )
        assert rules_of(findings) == ["REP005", "REP005"]

    def test_flags_set_method_results(self):
        findings = lint_source(
            "a = set()\nb = set()\nfor k in a.intersection(b):\n    print(k)\n"
        )
        assert rules_of(findings) == ["REP005"]

    def test_sorted_set_passes(self):
        findings = lint_source(
            "hints = set()\n"
            "for key in sorted(hints):\n"
            "    print(key)\n"
            "ordered = sorted(hints | {3})\n"
        )
        assert findings == []

    def test_membership_and_len_pass(self):
        findings = lint_source(
            "seen = {1, 2}\nhit = 1 in seen\ncount = len(seen)\n"
        )
        assert findings == []

    def test_pragma_suppresses(self):
        flagged = lint_source("total = sum(1 for k in set(range(4)))\n")
        assert rules_of(flagged) == ["REP005"]
        findings = lint_source(
            "total = sum(1 for k in set(range(4)))"
            "  # repro: lint-ignore[REP005] order-free reduction\n"
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP006 — hot paths instrument through repro.obs, not print/stdout
# ----------------------------------------------------------------------
class TestRep006InstrumentationViaObs:
    PATH = "src/repro/kv/fixture.py"

    def test_flags_print_in_hot_path_module(self):
        findings = lint_source(
            "def multi_get(self, keys):\n"
            "    '''Batched read.'''\n"
            "    print('served', len(keys))\n"
            "    return keys\n",
            path=self.PATH,
        )
        assert rules_of(findings) == ["REP006"]
        assert "repro.obs span" in findings[0].message
        assert "owner's stats" in findings[0].message

    def test_flags_raw_stream_writes(self):
        findings = lint_source(
            "import sys\n"
            "def put(self, key, value):\n"
            "    '''Write.'''\n"
            "    sys.stderr.write('put\\n')\n"
            "    sys.stdout.write('ok\\n')\n",
            path="src/repro/serve/fixture.py",
        )
        assert rules_of(findings) == ["REP006", "REP006"]

    def test_applies_across_all_hot_path_layers(self):
        for path in (
            "src/repro/core/fixture.py",
            "src/repro/train/dist/fixture.py",
            "src/repro/device/fixture.py",
        ):
            findings = lint_source("print('x')\n", path=path)
            assert rules_of(findings) == ["REP006"], path

    def test_spans_and_owner_stats_pass(self):
        findings = lint_source(
            "from repro.obs.trace import span\n"
            "def multi_get(self, keys):\n"
            "    '''Batched read.'''\n"
            "    with span('kv.multi_get', keys=len(keys)):\n"
            "        out = list(keys)\n"
            "    self._stats.gets += len(keys)\n"
            "    return out\n",
            path=self.PATH,
        )
        assert findings == []

    def test_out_of_scope_modules_may_print(self):
        # repro.obs itself, the analysis tier, and the bench harness all
        # legitimately write to stdout — they are not hot paths.
        for path in (
            "src/repro/obs/fixture.py",
            "src/repro/analysis/fixture.py",
            "src/repro/bench/fixture.py",
        ):
            findings = lint_source("print('report')\n", path=path)
            assert "REP006" not in rules_of(findings), path

    def test_pragma_suppresses(self):
        findings = lint_source(
            "print('recovery banner')"
            "  # repro: lint-ignore[REP006] operator-facing CLI output\n",
            path=self.PATH,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP007 — public docstrings on the documented API surfaces
# ----------------------------------------------------------------------
class TestRep007PublicDocstrings:
    PATH = "src/repro/serve/fixture.py"

    def test_flags_undocumented_public_names(self):
        findings = lint_source(
            "class Batcher:\n"
            "    '''Forms batches.'''\n"
            "    def form(self):\n"
            "        return []\n"
            "def helper():\n"
            "    return 1\n",
            path=self.PATH,
        )
        assert rules_of(findings) == ["REP007", "REP007"]
        messages = " | ".join(finding.message for finding in findings)
        assert "`Batcher.form`" in messages and "`helper`" in messages

    def test_documented_and_private_names_pass(self):
        findings = lint_source(
            "class Batcher:\n"
            "    '''Forms batches.'''\n"
            "    def form(self):\n"
            "        '''Close the open batch.'''\n"
            "    def _gather(self):\n"
            "        return []\n"
            "def _helper():\n"
            "    return 1\n",
            path=self.PATH,
        )
        assert findings == []

    def test_setters_and_overloads_are_exempt(self):
        findings = lint_source(
            "from typing import overload\n"
            "class Policy:\n"
            "    '''Knobs.'''\n"
            "    @property\n"
            "    def depth(self):\n"
            "        '''Queue depth bound.'''\n"
            "    @depth.setter\n"
            "    def depth(self, value):\n"
            "        self._depth = value\n"
            "    @overload\n"
            "    def bound(self, x: int) -> int: ...\n",
            path=self.PATH,
        )
        assert findings == []

    def test_out_of_scope_modules_are_not_checked(self):
        for path in (
            "src/repro/core/fixture.py",
            "src/repro/device/fixture.py",
            "tests/test_fixture.py",
        ):
            findings = lint_source("def helper():\n    return 1\n", path=path)
            assert "REP007" not in rules_of(findings), path

    def test_pragma_suppresses(self):
        findings = lint_source(
            "def helper():  # repro: lint-ignore[REP007] internal shim\n"
            "    return 1\n",
            path=self.PATH,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP008 — one dedupe: no bare np.unique under repro
# ----------------------------------------------------------------------
class TestRep008OneDedupe:
    PATH = "src/repro/train/fixture.py"

    def test_flags_bare_unique(self):
        findings = lint_source(
            "import numpy as np\n"
            "schedule = [np.unique(keys) for keys in batches]\n"
            "rows = np.unique(a * n + b)\n",
            path=self.PATH,
        )
        assert rules_of(findings) == ["REP008", "REP008"]
        assert "sorted_unique" in findings[0].message

    def test_flags_every_spelling_of_numpy(self):
        findings = lint_source(
            "import numpy\n"
            "from numpy import unique as dedupe\n"
            "a = numpy.unique(keys)\n"
            "b = dedupe(keys)\n",
            path="src/repro/kv/fixture.py",
        )
        assert rules_of(findings) == ["REP008", "REP008"]

    def test_sort_path_calls_pass(self):
        findings = lint_source(
            "import numpy as np\n"
            "unique, inverse = np.unique(keys, return_inverse=True)\n"
            "unique, first = np.unique(keys[::-1], return_index=True)\n"
            "unique, counts = np.unique(keys, return_counts=True)\n"
            "rows = np.unique(matrix, axis=0)\n"
            "both = np.unique(keys, True)\n"
            "given = np.unique(keys, **options)\n",
            path=self.PATH,
        )
        assert findings == []

    def test_other_uniques_pass(self):
        findings = lint_source(
            "import numpy as np  # noqa: F401\n"
            "import pandas as pd\n"
            "a = pd.unique(keys)\n"
            "b = frame.unique()\n",
            path=self.PATH,
        )
        assert findings == []

    def test_the_helper_module_and_out_of_scope_files_may_call_it(self):
        source = "import numpy as np\nvalues = np.unique(keys)\n"
        for path in ("src/repro/_arrays.py", "tests/test_fixture.py", "benchmarks/fixture.py"):
            assert "REP008" not in rules_of(lint_source(source, path=path)), path

    def test_pragma_suppresses(self):
        findings = lint_source(
            "import numpy as np\n"
            "values = np.unique(keys)  # repro: lint-ignore[REP008] float keys\n",
            path=self.PATH,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP009 — no unused import, in every linted file
# ----------------------------------------------------------------------
class TestRep009NoUnusedImport:
    def test_unused_imports_flagged_in_and_out_of_src(self):
        source = (
            "import os\n"
            "import numpy as np\n"
            "from typing import Optional, Sequence\n"
            "def f(x: Optional[int]) -> int:\n"
            "    return os.getpid()\n"
        )
        for path in ("src/repro/snippet.py", "tests/test_fixture.py"):
            findings = lint_source(source, path=path)
            assert rules_of(findings) == ["REP009", "REP009"], path
            assert [f.line for f in findings] == [2, 3]
            assert "`numpy`" in findings[0].message and "`Sequence`" in findings[1].message

    def test_exempt_imports_pass(self):
        findings = lint_source(
            "from __future__ import annotations\n"
            "import repro.analysis.rules  # noqa: F401 registers the rules\n"
            "from typing import TYPE_CHECKING\n"
            "from repro.nn.sparse import Block, EdgeGroups\n"
            "import os.path\n"
            "__all__ = ['EdgeGroups']\n"
            "def f(block: 'Block') -> str:\n"
            "    return os.path.join(str(TYPE_CHECKING), '')\n",
        )
        assert findings == []
        reexport = "from repro.nn.sparse import Block\n"
        assert lint_source(reexport, path="src/repro/nn/__init__.py") == []


# ----------------------------------------------------------------------
# identity: the repo satisfies its own linter
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_source_tree_has_no_findings(self):
        findings = lint_paths([str(REPO_ROOT / "src")])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_test_and_bench_trees_have_no_findings(self):
        findings = lint_paths([
            str(REPO_ROOT / "tests"),
            str(REPO_ROOT / "benchmarks"),
            str(REPO_ROOT / "examples"),
        ])
        assert findings == [], "\n".join(f.format() for f in findings)
