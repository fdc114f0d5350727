"""The process's heap policy: keep a step's freed temporaries resident.

glibc's ``malloc`` picks two thresholds dynamically.  A request at or
above the mmap threshold gets its own mapping, unmapped again on
``free``; and when the free memory at the top of the heap exceeds the
trim threshold, ``free`` hands it back to the kernel.  A GAT step
frees more activations and gradients than the dynamic trim threshold,
so every step returned ~7 MiB to the kernel and the next one took it
back one zero-filled page at a time: ~1,900 minor faults and ~2.8 ms of
kernel CPU in a 13-18 ms ``gnn_dense`` op of the repository benchmark.
Fixing both thresholds keeps those pages in the heap for the next step
(~2 faults an op).

Both must be set, because setting either one turns off the dynamic
adjustment of both.  The values were chosen by measurement on the
repository benchmark:

* ``MMAP_THRESHOLD`` (4 MiB) sits above the largest array a training
  step allocates, so none of them is a fresh mapping, and below the
  large log arenas (``HybridLog``'s ``np.zeros``; 256 MiB on
  ``dlrm_mem``), which stay mappings whose untouched pages the kernel
  never backs.  glibc caps it at 32 MiB.
* ``TRIM_THRESHOLD`` (64 MiB) holds a step's freed working set with
  room to spare.  32 MiB / 1 GiB cut the faults no further and raised
  ``dlrm_mem``'s peak RSS by 3.4%; 4 MiB / 64 MiB kept every workload's
  within 1% of the dynamic policy.

Nothing else changes: every value the program computes, simulated
clocks included, is the same under either policy.  A C library without
``mallopt`` keeps its own policy.
"""

from __future__ import annotations

import ctypes

# From glibc's <malloc.h>.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 64 << 20


def keep_freed_heap_resident() -> None:
    """Fix glibc's mmap and trim thresholds for this process; a no-op
    where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
