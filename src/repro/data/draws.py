"""Scalar draws served out of array draws.

``Generator.random`` / ``.exponential`` / ``.integers`` fill an array
from the same bit stream as that many scalar calls, so a generator asked
for one value at a time (a user's next key, its next think time) draws
:data:`DRAW_CHUNK` at once: same stream, one NumPy call per chunk.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

#: Values drawn per refill.
DRAW_CHUNK = 4096


def chunked(draw: Callable[[int], np.ndarray]) -> Iterator:
    """The stream ``draw(n)`` continues, as Python scalars: every reader
    of the iterator — one value or ``islice`` — sees it in order."""
    while True:
        yield from draw(DRAW_CHUNK).tolist()
