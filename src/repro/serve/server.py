"""The embedding server: restored checkpoints answering lookups + scores.

``EmbeddingServer`` closes the paper's loop — train → checkpoint →
restore → **serve**: it reopens a store image (typically via
:meth:`~repro.core.checkpoint.CloudCheckpointer.restore`), loads the
dense network the trainer exported with
:meth:`~repro.train.loop.BaseTrainer.export_servable`, and answers
batched lookup/score requests in front of the request-coalescing
micro-batcher.

Read modes
----------
``bounded``
    Reads run MLKV's vector-clock Get protocol, exactly as training
    reads do: each store read is an admission, and a key whose
    staleness counter exceeds the bound *stalls*.  Serving has no
    pending-update queue to apply, so the server registers its own
    stall handler that settles the clock by writing the key's committed
    value back (a **refresh**) — the serving-tier analogue of the
    trainer applying pending updates.  Combined with duplicate-key
    coalescing (one admission serves every waiter in the batch), hot
    keys stay inside the bound instead of stalling the tier.
``snapshot``
    Reads use the committed-read path (``snapshot_read_many``): no
    admissions, no clock updates, valid for frozen (read-only) images
    and for every plain engine.
``auto`` (default)
    ``bounded`` when the store enforces a staleness bound and is
    writable, else ``snapshot``.

The hot-key :class:`~repro.serve.cache.AdmissionCache` sits in front of
both modes.  In bounded mode under a finite bound its per-entry reuse
limit is the staleness bound (at least 1), budgeting cache reuse at one
bound's worth of serves per admission — the cache then never lets a key
drift further from the store clock than the store itself would allow
between settlements.
"""

from __future__ import annotations

import os
import pickle
from typing import Optional

import numpy as np

from repro.core.embedding import EmbeddingTables
from repro.core.staleness import ASP_BOUND
from repro.errors import ConfigError, ServingError
from repro.kv import KVStore, decode_vectors
from repro.nn.tensor import Tensor
from repro.obs.trace import span as obs_span
from repro.serve.cache import AdmissionCache
from repro.serve.telemetry import ServingTelemetry
from repro.train.loop import BaseTrainer

#: Fixed CPU cost of handling one request (parse + route + respond).
REQUEST_CPU_SECONDS = 0.2e-6

#: Fixed CPU cost of one store round-trip (call framing + dispatch); this
#: is the per-call overhead micro-batching amortizes, the serving-side
#: sibling of the engines' ``BATCH_CPU_FRACTION`` amortization.
DISPATCH_CPU_SECONDS = 0.8e-6

#: File name the trainer's ``export_servable`` writes inside the image —
#: the trainer's constant, imported so the handoff cannot drift.
SERVABLE_FILE = BaseTrainer.SERVABLE_FILE

READ_MODES = ("auto", "bounded", "snapshot")


def load_servable(directory: str) -> dict:
    """Load the exported model bundle from a restored store image."""
    path = os.path.join(directory, SERVABLE_FILE)
    if not os.path.exists(path):
        raise ServingError(
            f"no servable model in {directory}; the training side must call "
            "BaseTrainer.export_servable() before checkpointing"
        )
    with open(path, "rb") as f:
        return pickle.load(f)


class EmbeddingServer:
    """Online read path over a (restored) store and an exported model.

    Parameters
    ----------
    store:
        Any :class:`~repro.kv.api.KVStore` — MLKV for the full bounded
        protocol, a :class:`~repro.kv.sharded.ShardedKVStore` for
        scale-out, or a plain engine for snapshot serving.
    dim:
        Embedding dimension (must match the trained tables).
    network:
        Optional dense network for :meth:`score`; lookups work without.
    seed / init_scale:
        Lazy-init parameters; must match training for exact-score parity
        on keys training never inserted.
    cache_entries:
        Hot-key admission-cache capacity (0 disables it).
    read_mode:
        ``auto`` | ``bounded`` | ``snapshot`` (see module docstring).
    telemetry:
        Shared :class:`ServingTelemetry`; a private one is created when
        omitted.
    """

    def __init__(
        self,
        store: KVStore,
        dim: int,
        network=None,
        seed: int = 0,
        init_scale: float = 0.05,
        cache_entries: int = 4096,
        read_mode: str = "auto",
        telemetry: Optional[ServingTelemetry] = None,
    ) -> None:
        if read_mode not in READ_MODES:
            raise ConfigError(f"read_mode must be one of {READ_MODES}, got {read_mode!r}")
        self.store = store
        self.dim = dim
        self.network = network
        self.telemetry = telemetry or ServingTelemetry()
        # The tables facade is reused for lazy init, decoding conventions
        # and look-ahead staging; its own app cache stays off because the
        # AdmissionCache below does that job with tier accounting.
        self.tables = EmbeddingTables(
            store, dim, init_scale=init_scale, seed=seed, cache_entries=0
        )
        bound = store.staleness_bound
        bounded_capable = bound is not None and not store.read_only
        if read_mode == "auto":
            read_mode = "bounded" if bounded_capable else "snapshot"
        elif read_mode == "bounded" and not bounded_capable:
            raise ConfigError(
                "bounded read mode needs a writable store with a staleness "
                "bound (MLKV); use read_mode='snapshot' for this store"
            )
        self.read_mode = read_mode
        reuse_limit = max(1, int(bound)) if read_mode == "bounded" and bound < ASP_BOUND else None
        self.cache = AdmissionCache(cache_entries, reuse_limit=reuse_limit)
        if read_mode == "bounded":
            store.set_stall_handler(self._refresh_on_stall)
        self._clock = store.clock
        # Hit/miss counters the refresh handler's own snapshot reads
        # contributed; _fetch subtracts these so refreshes that fire
        # *inside* its measurement window are not booked as served tiers.
        self._refresh_hits = 0
        self._refresh_misses = 0

    # ------------------------------------------------------------------
    # construction from a checkpoint epoch
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        checkpointer,
        directory: str,
        epoch: Optional[int] = None,
        read_mode: str = "auto",
        cache_entries: int = 4096,
        read_only: bool = False,
        overwrite: bool = False,
        telemetry: Optional[ServingTelemetry] = None,
        **restore_kwargs,
    ) -> "EmbeddingServer":
        """Restore an epoch into ``directory`` and serve it.

        ``checkpointer`` is a :class:`~repro.core.checkpoint.CloudCheckpointer`
        (built with ``store=None`` on a pure serving node);
        ``restore_kwargs`` reach the store's ``restore`` classmethod
        (``ssd=``, ``staleness_bound=``, a sharded ``factory=``, ...).
        The servable model exported by the trainer is loaded from the
        restored image, so scores match the training process exactly.
        """
        store = checkpointer.restore(
            directory, epoch=epoch, overwrite=overwrite,
            read_only=read_only, **restore_kwargs,
        )
        servable = load_servable(directory)
        return cls(
            store,
            dim=servable["dim"],
            network=servable["network"],
            seed=servable["seed"],
            init_scale=servable["init_scale"],
            cache_entries=cache_entries,
            read_mode=read_mode,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def lookup(self, keys) -> np.ndarray:
        """Vectors for ``keys`` (duplicates fine); shape ``[n, dim]``.

        Unseen keys return their deterministic lazy initialization
        without inserting anything — serving never grows the table.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        unique, inverse = np.unique(keys, return_inverse=True)
        vectors = self.lookup_unique([int(key) for key in unique])
        return np.stack(vectors)[inverse] if len(vectors) else np.empty((0, self.dim), np.float32)

    def lookup_unique(self, unique_keys: list[int]) -> list[np.ndarray]:
        """One vector per already-unique key, cache tier first.

        This is the micro-batcher's entry point: the coalesced batch's
        unique keys arrive here, cache hits peel off, and one batched
        store read (one dispatch charge, amortized engine CPU) serves
        the rest.
        """
        results = self.cache.lookup_many(unique_keys)
        missing = [row for row, vector in enumerate(results) if vector is None]
        if missing:
            fetched = self._fetch([unique_keys[row] for row in missing])
            for row, vector in zip(missing, fetched):
                results[row] = vector
        return results  # type: ignore[return-value]

    def _fetch(self, keys: list[int]) -> list[np.ndarray]:
        """One batched store read; attributes tiers and fills the cache.

        Tier attribution: keys the store does not hold are ``lazy_init``
        (answered without data movement); keys it does hold split into
        memory/disk by the engine's own hit/miss counter deltas, with
        the refresh handler's reads (which may fire mid-``multi_get``)
        compensated out so tier totals match keys served.
        """
        if self._clock is not None and DISPATCH_CPU_SECONDS:
            self._clock.advance(DISPATCH_CPU_SECONDS, component="cpu")
        hits_before, misses_before = self.store.read_counts()
        refresh_hits_before = self._refresh_hits
        refresh_misses_before = self._refresh_misses
        with obs_span(
            "serve.fetch", clock=self._clock, mode=self.read_mode, keys=len(keys)
        ):
            if self.read_mode == "bounded":
                raws = self.store.multi_get(keys)
            else:
                raws = self.store.snapshot_read_many(keys)
        hits_after, misses_after = self.store.read_counts()
        present = [raw for raw in raws if raw is not None]
        absent = len(raws) - len(present)
        hit_delta = (hits_after - hits_before) - (
            self._refresh_hits - refresh_hits_before
        )
        miss_delta = (misses_after - misses_before) - (
            self._refresh_misses - refresh_misses_before
        )
        self.cache.tiers.lazy_inits += absent
        self.cache.tiers.store_memory_hits += max(0, hit_delta)
        self.cache.tiers.store_disk_reads += max(0, miss_delta - absent)
        # One decode for the batch; each row is copied out so a cache
        # entry never keeps the whole batch matrix alive.
        vectors = [row.copy() for row in decode_vectors(present, self.dim)]
        if absent:
            decoded = iter(vectors)
            vectors = [
                self.tables.init_vector(key) if raw is None else next(decoded)
                for key, raw in zip(keys, raws)
            ]
        self.cache.admit_many(keys, vectors)
        return vectors

    def charge_request_overhead(self, count: int) -> None:
        """Per-request handling cost (paid per request in every mode)."""
        if self._clock is not None and REQUEST_CPU_SECONDS and count:
            self._clock.advance(REQUEST_CPU_SECONDS * count, component="cpu")

    def _refresh_on_stall(self, key: int) -> bool:
        """Settle a stalled key by writing its committed value back.

        A pure read tier accumulates staleness with every admission;
        this is the serving-side settlement: re-writing the committed
        value performs MLKV's Put half, decrementing the clock so the
        blocked Get admits.  Returns ``False`` (aborting the Get) only
        when the key has no committed value to settle with.
        """
        hits_before, misses_before = self.store.read_counts()
        raw = self.store.snapshot_read(key)
        hits_after, misses_after = self.store.read_counts()
        self._refresh_hits += hits_after - hits_before
        self._refresh_misses += misses_after - misses_before
        if raw is None:
            return False
        self.store.put(key, raw)
        self.telemetry.refreshes += 1
        return True

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score(self, dense: np.ndarray, sparse_keys) -> np.ndarray:
        """Model scores for a feature batch, embeddings fetched via
        :meth:`lookup`.

        ``dense`` is ``[batch, num_dense]``; ``sparse_keys`` is
        ``[batch, num_fields]``.  Returns the network's logits as a
        numpy array — bit-identical to the training process evaluating
        the same inputs on the same checkpoint.
        """
        if self.network is None:
            raise ServingError("this server was built without a network; "
                               "lookups work but score() needs export_servable")
        sparse_keys = np.asarray(sparse_keys, dtype=np.int64)
        emb = self.lookup(sparse_keys.reshape(-1)).reshape(
            *sparse_keys.shape, self.dim
        )
        self.network.eval()
        logits = self.network(np.asarray(dense), Tensor(emb))
        return logits.numpy() if hasattr(logits, "numpy") else np.asarray(logits)

    # ------------------------------------------------------------------
    # prefetch
    # ------------------------------------------------------------------
    def prefetch(self, keys) -> int:
        """Stage likely-next keys into the store's memory buffer.

        Delegates to the look-ahead machinery
        (:meth:`EmbeddingTables.lookahead` → ``MLKV.lookahead``): disk
        records move at background sequential cost, so the following
        micro-batch finds them in memory.  No-ops on engines without an
        in-store prefetch path.
        """
        return self.tables.lookahead(keys, dest="buffer")

    @property
    def clock(self):
        """The simulated clock serving time runs on."""
        if self._clock is None:
            raise ServingError("store exposes no clock; serving needs one")
        return self._clock

    def close(self) -> None:
        """Close the underlying store."""
        self.store.close()

    def __enter__(self) -> "EmbeddingServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
