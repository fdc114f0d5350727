"""The process heap policy set by ``import repro`` (``repro._heap``).

A step's freed temporaries must stay in the heap for the next step
instead of going back to the kernel and being zero-faulted in again;
and a C library without ``mallopt`` must leave ``import repro`` working.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import textwrap

import pytest

from repro import _heap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ROUNDS, COUNTED = 20, 10
ARRAYS, ARRAY_BYTES = 3, 2 << 20
#: What the counted rounds fault when every array is fresh memory.
FRESH_FAULTS = COUNTED * ARRAYS * ARRAY_BYTES // resource.getpagesize()


def run_python(source: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def faults_of_step_loop(import_repro: bool) -> int:
    """Minor faults of the last ``COUNTED`` of ``ROUNDS`` rounds that each
    allocate, fill and free ``ARRAYS`` arrays of ``ARRAY_BYTES``, in a
    fresh interpreter."""
    source = f"""
        import resource
        import numpy as np
        {"import repro" if import_repro else ""}

        def faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        for step in range({ROUNDS}):
            if step == {ROUNDS - COUNTED}:
                start = faults()
            arrays = [np.ones({ARRAY_BYTES // 4}, dtype=np.float32) for _ in range({ARRAYS})]
            del arrays
        print(faults() - start)
    """
    return int(run_python(source))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
class TestFreedHeapStaysResident:
    def test_a_step_reuses_the_previous_steps_pages(self):
        assert faults_of_step_loop(import_repro=True) < FRESH_FAULTS // 50

    def test_without_the_policy_every_step_faults(self):
        # The loop above can fail: glibc's own thresholds hand the
        # arrays back to the kernel after every round.
        assert faults_of_step_loop(import_repro=False) > FRESH_FAULTS // 4


class TestPolicySetting:
    def test_both_thresholds_are_fixed(self, monkeypatch):
        calls = []

        def mallopt(option, value):
            calls.append((option, value))
            return 1

        libc = type("Libc", (), {"mallopt": staticmethod(mallopt)})()
        monkeypatch.setattr(_heap.ctypes, "CDLL", lambda name: libc)
        _heap.keep_freed_heap_resident()
        assert sorted(calls) == sorted([
            (_heap.M_MMAP_THRESHOLD, _heap.MMAP_THRESHOLD),
            (_heap.M_TRIM_THRESHOLD, _heap.TRIM_THRESHOLD),
        ])

    def test_no_mallopt_is_a_quiet_no_op(self, monkeypatch):
        monkeypatch.setattr(_heap.ctypes, "CDLL", lambda name: object())
        assert _heap.keep_freed_heap_resident() is None

    def test_an_unloadable_c_library_is_a_quiet_no_op(self, monkeypatch):
        def unloadable(name):
            raise OSError("no C library")

        monkeypatch.setattr(_heap.ctypes, "CDLL", unloadable)
        assert _heap.keep_freed_heap_resident() is None

    def test_import_succeeds_without_mallopt(self):
        source = """
            import ctypes

            def unloadable(name):
                raise OSError("no C library")

            ctypes.CDLL = unloadable
            import repro
            print(repro.__version__)
        """
        assert run_python(source).strip()
