"""Wall-clock measurement helpers for the real-time bench dimension.

Everything else in the bench tier runs on the simulated clock — numbers
are deterministic and machine-independent, which is what makes the perf
gate trustworthy.  The *wall-clock* dimension deliberately breaks that
rule for the handful of optimizations whose entire point is real CPU
time: vectorized gather/scatter, the array store verbs, the batch-native
engine paths.  A simulated clock cannot see any of them (it charges by
operation count, which these optimizations do not change).

To keep wall-clock numbers honest rather than noisy:

* every sample is ``time.perf_counter`` around the closure, and a
  measurement is the **minimum** over ``repeats`` runs (the minimum
  estimates the noise-free cost; means absorb scheduler jitter),
* measurements carry the machine's core count, so a number can be read
  against the parallelism that was actually available,
* the perf gate applies a much wider tolerance to payloads tagged
  ``"clock": "wall"`` (see ``benchmarks/compare.py``) — wall numbers
  gate only against order-of-magnitude collapses, not runner noise.

Outside ``benchmarks/``, only this module and ``repro.obs`` (whose
spans carry wall timestamps alongside the simulated ones) may call
``time.perf_counter`` — analysis rule REP001 allowlists exactly those
scopes; production code stays on the simulated clock.
"""

from __future__ import annotations

import os
import time
from typing import Callable


def cores() -> int:
    """CPU cores available to this process (1 when undetectable).

    Prefers the scheduler affinity mask over ``os.cpu_count`` so
    container CPU limits are reported truthfully — a scaling bench run
    on a 1-core runner must say so in its meta.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    """Minimum wall-clock seconds of ``fn()`` over ``repeats`` runs.

    The first run is included (not treated as warmup) — callers that
    need a warmup call ``fn()`` once themselves, keeping the measured
    protocol explicit at the call site.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def rate(units: int, seconds: float) -> float:
    """Units per second, saturating instead of dividing by zero.

    Sub-resolution timings (a loop faster than the clock tick) report
    the rate at one clock tick rather than ``inf`` — a finite, gateable
    number that still reads as "too fast to measure".
    """
    if seconds <= 0:
        seconds = time.get_clock_info("perf_counter").resolution
    return units / seconds


def speedup(baseline_seconds: float, optimized_seconds: float) -> float:
    """How many times faster the optimized timing is (>1 = faster)."""
    if optimized_seconds <= 0:
        optimized_seconds = time.get_clock_info("perf_counter").resolution
    return baseline_seconds / optimized_seconds
