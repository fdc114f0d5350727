"""Simulated hardware devices.

The paper's experiments run on AWS g5.16xlarge instances and eBay machines
with V100 GPUs and NVMe SSDs (1024 MB/s).  This package replaces that
hardware with deterministic cost models: every store charges its I/O to a
:class:`SimClock` through an :class:`SSDModel`, trainers charge neural
network compute through a :class:`GPUModel`, and :class:`EnergyModel`
converts per-component busy time into the approximate Joules-per-batch
numbers reported in Figure 7 (bottom).

Correctness of the storage engines never depends on these models — bytes
are really written to and read from files.  The models only decide how much
*simulated time* each operation costs, which is what the benchmark figures
report.  This makes every figure deterministic and machine-independent.
"""

from repro.device.clock import SimClock
from repro.device.ssd import SSDModel
from repro.device.gpu import GPUModel
from repro.device.energy import EnergyModel, POWER_WATTS
from repro.device.concurrency import ConcurrencyModel

__all__ = [
    "SimClock",
    "SSDModel",
    "GPUModel",
    "EnergyModel",
    "POWER_WATTS",
    "ConcurrencyModel",
]
