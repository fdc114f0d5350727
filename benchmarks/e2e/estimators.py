"""Estimators the benchmark reports its wall-clock numbers with.

The sandbox host runs at two speeds: the two vCPUs are hyperthread
siblings, so whenever a neighbour occupies the other thread every
instruction this process runs takes 1.4-2x longer, for seconds to
minutes at a time - longer than a whole run, so no quantile of raw times
sees past it (``NOISE.md`` has raw beside calibrated for the same runs).
Two devices keep that out of the reported numbers:

* every op boundary also times a small fixed **calibration kernel**
  (:class:`Calibrator`), and an op's wall time is rescaled by how slow
  the kernel ran next to it, so an op measured in a slow regime is
  expressed in the seconds it would have taken on the undisturbed host;
* the reported time is the **fast decile** (p10) of those per-op times,
  which ignores one-off stalls (page faults, collector runs, a regime
  change in the middle of an op).

Nothing here imports the program under test.
"""

from __future__ import annotations

import math
import struct
import time
from typing import Sequence

import numpy as np

#: Seconds the calibration kernel takes on the undisturbed reference
#: host (the 2-vCPU sandbox this benchmark was sized on).  Calibrated
#: times read as "seconds on that host"; on the reference host with no
#: neighbour they equal raw wall time.
CALIBRATION_REFERENCE_SECONDS = 1.45e-3

#: Quantile of per-op time every wall metric reports.
FAST_QUANTILE = 0.10

#: Quantile of chunk time a chunked set-up phase is charged at.
STEADY_QUANTILE = 0.25


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty series")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def fast_decile(values: Sequence[float]) -> float:
    """The p10 of ``values``: the speed of the undisturbed ops."""
    return quantile(values, FAST_QUANTILE)


def steady_total(chunk_seconds: Sequence[float]) -> float:
    """Steady cost of a phase made of equal chunks: ``n * p25(chunk)``.

    A few chunks always run slow (first-touch page faults, a collector
    pass); charging every chunk at the lower quartile reports what the
    phase costs without them.
    """
    if not chunk_seconds:
        return 0.0
    return len(chunk_seconds) * quantile(chunk_seconds, STEADY_QUANTILE)


class Calibrator:
    """A fixed ~1.4 ms kernel whose run time tracks the host's current speed.

    Four parts, one per way the workloads spend their time, because a busy
    neighbour does not slow them all alike: interpreter work shaped like
    the engine's hot loop (dict probes, tuple unpacking, ``struct``
    packing into a page, slicing bytes out); small NumPy calls bound by
    dispatch (the dense net on a DLRM batch); a streaming pass over
    arrays larger than the core's cache (the GAT attention masks); and a
    random row gather (embedding tables, log pages).  The kernel must
    never change: every calibrated number is relative to it.
    """

    _RECORD = struct.Struct("<QQI")

    def __init__(self) -> None:
        self._table = {i: (i, i * 3) for i in range(50_000)}
        self._probe = [(i * 7919) % 50_000 for i in range(500)]
        self._page = bytearray(1 << 15)
        rng = np.random.default_rng(12345)
        self._left = rng.random((96, 64), dtype=np.float32)
        self._right = rng.random((64, 64), dtype=np.float32)
        self._rows = rng.integers(0, 96, 256)
        self._wide = rng.random((384, 1024), dtype=np.float32)
        self._scratch = np.empty_like(self._wide)
        self._vectors = rng.random((32_768, 32), dtype=np.float32)
        self._picks = rng.integers(0, 32_768, 2000)

    def python_part(self) -> int:
        table, page, record = self._table, self._page, self._RECORD
        total = 0
        for i in self._probe:
            a, b = table[i]
            offset = (i & 255) * 20
            record.pack_into(page, offset, a, b, 128)
            _, _, length = record.unpack_from(page, offset)
            total += len(bytes(page[offset + 20 : offset + 20 + length]))
        return total

    def numpy_part(self) -> float:
        for _ in range(4):
            hidden = self._left @ self._right
            np.maximum(hidden, 0.5, out=hidden)
            gathered = hidden[self._rows]
        np.multiply(self._wide, 1.0001, out=self._scratch)
        total = self._scratch.sum(axis=1)
        picked = self._vectors[self._picks]
        return float(gathered[0, 0] + total[0] + picked[0, 0])

    def __call__(self) -> None:
        self.python_part()
        self.numpy_part()


class Laps:
    """Boundary marks of a sequence of chunks, each with a kernel run.

    ``mark()`` is called at every chunk boundary; it stamps the wall
    clock, runs the calibration kernel and stamps again.  Chunk ``i``
    then lasted from the second stamp of mark ``i`` to the first stamp
    of mark ``i + 1`` (the kernel's own time is never inside a chunk),
    and its host-speed factor is the mean kernel time of the two marks
    around it over the reference kernel time.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self._calibrator = calibrator
        self.before: list[float] = []
        self.after: list[float] = []

    def mark(self) -> None:
        self.before.append(time.perf_counter())
        self._calibrator()
        self.after.append(time.perf_counter())

    def __len__(self) -> int:
        """Number of complete chunks."""
        return max(0, len(self.before) - 1)

    def raw(self) -> list[float]:
        """Wall seconds of each chunk."""
        return [
            self.before[i + 1] - self.after[i] for i in range(len(self))
        ]

    def speed_factors(self) -> list[float]:
        """Per chunk: how much slower than the reference the host ran."""
        kernel = [a - b for a, b in zip(self.after, self.before)]
        return [
            (kernel[i] + kernel[i + 1]) / (2.0 * CALIBRATION_REFERENCE_SECONDS)
            for i in range(len(self))
        ]

    def calibrated(self) -> list[float]:
        """Each chunk's seconds on the undisturbed reference host."""
        return [
            seconds / factor
            for seconds, factor in zip(self.raw(), self.speed_factors())
        ]
