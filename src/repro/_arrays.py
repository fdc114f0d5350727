"""Array helpers shared across the stack.

``sorted_unique`` is the one dedupe of a key set.  On numpy 2.4 a bare
``np.unique(x)`` (no ``return_*`` flag, no ``axis``) takes a hashing path
that costs about eleven times one sort plus an adjacent-difference mask:
0.67 against 0.06 ms on a 6,656-key DLRM batch, 0.26 against 0.02 ms on
a 1,700-key GNN frontier (2-vCPU x86 host).  Calls that ask for indices
or an inverse already take numpy's sort path and stay as they are.
"""

from __future__ import annotations

import numpy as np


def sorted_unique(values) -> np.ndarray:
    """The distinct values of ``values``, flattened and ascending.

    Equals ``np.unique(values)`` for integer input: same values, same
    dtype, 1-D.
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]
