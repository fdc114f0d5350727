"""Look-ahead prefetch scheduling over a known batch sequence.

Training data loaders know the upcoming minibatches (paper §III-C2: "or
even just know what future incoming training samples will be"), so the
engine keeps a cursor into the batch stream and, each step, issues
``Lookahead`` calls for the batches inside its window that have not been
staged yet.

Two windows model the paper's distinction:

* the *conventional* window (``dest='cache'``) may reach at most
  ``staleness_bound`` batches ahead — prefetching into the application
  cache performs Get admissions, which the bound limits;
* the *look-ahead* window (``dest='buffer'``) reaches ``distance``
  batches ahead regardless of the bound, because staging into the store's
  memory buffer performs no admissions — but no further than the buffer
  holds.  Staging hides a disk stall only while the staged copy is still
  in the mutable region when its batch's Puts land, ``pipeline_depth``
  steps after its Gets: a Put there updates it in place.  Staged further
  ahead, the copies are read-only by then, every Put appends a copy of
  its own, and the appends push the staged copies of the next batches
  out of memory before their Gets — which stall on disk after all.  The
  window is therefore clamped to ``capacity // batch_keys -
  pipeline_depth`` batches, where ``capacity`` is what the store's buffer
  holds of records this wide
  (:meth:`~repro.kv.api.KVStore.lookahead_capacity`) and ``batch_keys``
  the largest batch of the schedule — but never below one batch, nor
  below the conventional window: that one Gets batch ``step + window``
  now, and a look-ahead that stops short of it would stage those records
  only after the Gets read them from disk, for nobody to read again.
  Every input is fixed before the first step, so the clamp binds from the
  first call: a window sized from the log's measured growth would feed
  back on itself and oscillate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.embedding import EmbeddingTables
from repro.kv.common.serialization import framed_width


class LookaheadEngine:
    """Sliding-window prefetcher over a fixed batch schedule.

    Parameters
    ----------
    tables:
        Embedding facade to prefetch through.
    batch_keys:
        The known schedule: one int array of embedding keys per batch.
    distance:
        Look-ahead window in batches (0 disables look-ahead); clamped to
        what the store's buffer holds (module docstring).
    conventional_window:
        Conventional (cache) prefetch window; clamped to the store's
        staleness bound by the caller.
    pipeline_depth:
        Steps between a batch's Gets and its Puts (the trainer's pipeline
        depth; 0 for a reader that never writes back).
    """

    def __init__(
        self,
        tables: EmbeddingTables,
        batch_keys: Sequence[np.ndarray],
        distance: int = 0,
        conventional_window: int = 0,
        pipeline_depth: int = 0,
    ) -> None:
        if distance < 0 or conventional_window < 0 or pipeline_depth < 0:
            raise ValueError("prefetch windows and the pipeline depth must be non-negative")
        self.tables = tables
        self.batch_keys = batch_keys
        self.distance = distance
        self.conventional_window = conventional_window
        self.pipeline_depth = pipeline_depth
        self._largest_batch = max(map(len, batch_keys), default=0)
        self._buffer_cursor = 0
        self._cache_cursor = 0

    def buffer_window(self) -> int:
        """Batches ahead the look-ahead stages: ``distance``, clamped so
        that a staged batch is still in the mutable region when its Puts
        land, and reaching at least as far as the conventional window
        (module docstring)."""
        if not self.distance or not self._largest_batch:
            return self.distance
        capacity = self.tables.store.lookahead_capacity(framed_width(self.tables.dim))
        fits = capacity // self._largest_batch - self.pipeline_depth
        return min(self.distance, max(1, self.conventional_window, fits))

    def advance(self, step: int) -> dict[str, int]:
        """Prefetch for the window following batch ``step``.

        Returns counters ``{"buffer": n_staged, "cache": n_cached}``.
        """
        staged = 0
        cached = 0
        buffer_target = min(len(self.batch_keys), step + 1 + self.buffer_window())
        start = max(self._buffer_cursor, step + 1)
        if start < buffer_target:
            # Stage the window's batches with one Lookahead call: the
            # store sorts the union by log address and serves it with a
            # single sequential scan instead of one scan per batch.
            window = np.concatenate(
                [self.batch_keys[index] for index in range(start, buffer_target)]
            )
            staged += self.tables.lookahead(window, dest="buffer")
        self._buffer_cursor = max(self._buffer_cursor, buffer_target)

        cache_target = min(len(self.batch_keys), step + 1 + self.conventional_window)
        start = max(self._cache_cursor, step + 1)
        for index in range(start, cache_target):
            cached += self.tables.lookahead(self.batch_keys[index], dest="cache")
        self._cache_cursor = max(self._cache_cursor, cache_target)
        return {"buffer": staged, "cache": cached}
