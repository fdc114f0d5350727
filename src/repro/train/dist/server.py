"""The parameter server: canonical model state over a KV store.

The server owns everything that must be singular for training to be
well-defined: the canonical dense network and its Adam state, the sparse
row optimizer (RowAdagrad or RowAdam) whose accumulators turn pushed
gradients into row *deltas*, the embedding values themselves (delegated
to any :class:`~repro.kv.api.KVStore` behind an
:class:`~repro.core.embedding.EmbeddingTables` facade), and the
worker-progress vector clock that extends MLKV's bounded-staleness
admission idea across workers.

Workers never ship rows back.  They push ``(keys, grads)`` and the
server adds the optimizer's deltas onto the committed rows
(``EmbeddingTables.peek``; on a replicated store any live replica, all
of which hold every acknowledged write) and writes the batch back with
one ``put``, which fans out to every live replica.
Pushes carry a batch identity; a ledger guarantees each batch's delta is
applied *exactly once* even when workers die between compute and push
and their batches are re-queued to someone else.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.embedding import EmbeddingTables
from repro.errors import ConfigError, StalenessViolation
from repro.nn.layers import Module
from repro.nn.optim import Adam, RowAdagrad
from repro.obs.trace import span as obs_span
from repro.train.loop import TrainerConfig


class WorkerProgressClock:
    """Per-worker completed-step counts: MLKV's vector clock, worker-grained.

    MLKV admits a Get while the record's pending-update count is within
    the staleness bound.  Across workers the analogous hazard is a fast
    worker training on state that is missing too many *other workers'*
    contributions — so the clock tracks completed steps per worker and
    admits a pull while the worker's **lead** over the slowest worker is
    within the bound.  ``bound=0`` degenerates to lockstep (no worker may
    start step ``k+1`` until all finished step ``k``); ``bound=∞`` is
    fully asynchronous.

    Workers that join mid-run register at the *current minimum* so a
    newcomer neither stalls the fleet nor starts with an absurd deficit.
    """

    def __init__(self) -> None:
        self.completed: dict[int, int] = {}

    def register(self, worker_id: int) -> None:
        """Add a worker at zero completed steps."""
        if worker_id in self.completed:
            raise ConfigError(f"worker {worker_id} already registered")
        self.completed[worker_id] = self.min_completed() if self.completed else 0

    def deregister(self, worker_id: int) -> None:
        """Forget a worker, so its progress no longer bounds the minimum."""
        self.completed.pop(worker_id, None)

    def complete(self, worker_id: int, count: int = 1) -> None:
        """Credit ``count`` completed steps to a worker."""
        self.completed[worker_id] += count

    def min_completed(self) -> int:
        """The slowest worker's completed steps (the global floor)."""
        return min(self.completed.values()) if self.completed else 0

    def lead(self, worker_id: int) -> int:
        """How far a worker runs ahead of the slowest one."""
        return self.completed[worker_id] - self.min_completed()

    def admissible(self, worker_id: int, bound: Optional[int]) -> bool:
        """Whether ``worker_id`` may start its next step under ``bound``."""
        if bound is None:
            return True
        return self.lead(worker_id) <= bound

    def __repr__(self) -> str:
        return f"WorkerProgressClock({self.completed})"


class PushPacket:
    """One worker's gradient push: identity + sparse and dense grads."""

    __slots__ = (
        "worker_id", "seq", "batch_index", "keys", "emb_grads",
        "dense_grads", "loss",
    )

    def __init__(
        self,
        worker_id: int,
        seq: int,
        batch_index: int,
        keys: np.ndarray,
        emb_grads: np.ndarray,
        dense_grads: list[np.ndarray],
        loss: float,
    ) -> None:
        self.worker_id = worker_id
        self.seq = seq
        self.batch_index = batch_index
        self.keys = keys
        self.emb_grads = emb_grads
        self.dense_grads = dense_grads
        self.loss = loss

    def __repr__(self) -> str:
        return (
            f"PushPacket(worker={self.worker_id}, seq={self.seq}, "
            f"batch={self.batch_index}, keys={len(self.keys)})"
        )


class ParameterServer:
    """Pull/push endpoint over an embedding store and a dense model.

    Parameters
    ----------
    tables:
        Embedding facade over the backing store (plain, sharded, or
        replicated) — pulls go through its admission-counting ``get``,
        pushes through its ``peek`` and ``put``.
    network:
        The canonical dense model.  Workers train bitwise copies; the
        server applies their gradients here with the single Adam state.
    config:
        Optimizer knobs (``emb_lr``, ``nn_lr``).
    staleness_bound:
        Cross-worker SSP bound enforced at pull time (``None`` =
        unbounded).  This is the *worker-level* bound; a per-record bound
        inside an MLKV store would stack a second admission protocol on
        the same reads, so distributed runs use plain/sharded/replicated
        stores and let the server own staleness.
    """

    def __init__(
        self,
        tables: EmbeddingTables,
        network: Module,
        config: TrainerConfig,
        staleness_bound: Optional[int] = None,
        emb_optimizer=None,
    ) -> None:
        self.tables = tables
        self.store = tables.store
        self.network = network
        self.config = config
        self.staleness_bound = staleness_bound
        self.emb_optimizer = emb_optimizer or RowAdagrad(lr=config.emb_lr)
        self.nn_optimizer = Adam(network.parameters(), lr=config.nn_lr)
        self.progress = WorkerProgressClock()
        #: batch_index -> (worker_id, seq) of the push that applied it.
        self.applied_batches: dict[int, tuple[int, int]] = {}
        self.pulls = 0
        self.pushes = 0
        self.rejected_pushes = 0

    # ------------------------------------------------------------------
    # worker RPC surface
    # ------------------------------------------------------------------
    def pull_rows(
        self, worker_id: int, unique_keys: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Bounded-staleness batched read of rows + dense parameters.

        Admission spans workers: the pull is refused while this worker's
        lead over the slowest registered worker exceeds the bound — the
        engine schedules around this, so a raise here means a scheduling
        bug, exactly like a store-level :class:`StalenessViolation`.
        Rows come through ``tables.get`` (one batched ``multi_get``, lazy
        init for unseen keys) — the same read path ``BaseTrainer`` uses,
        which is what makes 1-worker parity bit-exact.
        """
        if not self.progress.admissible(worker_id, self.staleness_bound):
            raise StalenessViolation(
                f"worker {worker_id} lead {self.progress.lead(worker_id)} "
                f"exceeds the cross-worker bound {self.staleness_bound}"
            )
        self.pulls += 1
        with obs_span(
            "ps.pull",
            clock=self.store.clock,
            worker=worker_id,
            keys=len(unique_keys),
        ):
            rows = self.tables.get(unique_keys)
            dense = [param.data.copy() for param in self.network.parameters()]
        return rows, dense

    def push_deltas(self, packet: PushPacket) -> bool:
        """Apply one worker's push (async / bounded-async path).

        Returns ``False`` without side effects when the packet's batch
        was already applied (a retried or duplicated push): the ledger is
        the exactly-once guard the fault-injection tests probe.
        """
        if packet.batch_index in self.applied_batches:
            self.rejected_pushes += 1
            return False
        with obs_span(
            "ps.push",
            clock=self.store.clock,
            worker=packet.worker_id,
            batch=packet.batch_index,
            keys=len(packet.keys),
        ):
            self._apply_dense([packet.dense_grads])
            self._apply_emb(packet.keys, packet.emb_grads)
        self.applied_batches[packet.batch_index] = (packet.worker_id, packet.seq)
        self.pushes += 1
        self.progress.complete(packet.worker_id)
        return True

    def apply_round(self, packets: list[PushPacket]) -> int:
        """Apply one synchronous barrier round; returns packets applied.

        Dense gradients are averaged across the round (the all-reduce a
        real PS performs) and stepped once; embedding delta batches are
        applied sequentially in worker-id order — deterministic, and safe
        for overlapping keys because each batch re-reads the
        committed rows.  For a 1-worker round the average is ``g / 1``
        and one delta batch applies: bit-identical to ``BaseTrainer``.
        """
        packets = sorted(packets, key=lambda packet: packet.worker_id)
        fresh = [
            packet for packet in packets
            if packet.batch_index not in self.applied_batches
        ]
        self.rejected_pushes += len(packets) - len(fresh)
        if not fresh:
            return 0
        with obs_span(
            "ps.apply_round",
            clock=self.store.clock,
            packets=len(fresh),
        ):
            self._apply_dense([packet.dense_grads for packet in fresh])
            for packet in fresh:
                self._apply_emb(packet.keys, packet.emb_grads)
                self.applied_batches[packet.batch_index] = (
                    packet.worker_id, packet.seq,
                )
                self.pushes += 1
                self.progress.complete(packet.worker_id)
        return len(fresh)

    # ------------------------------------------------------------------
    # server-side application
    # ------------------------------------------------------------------
    def _apply_dense(self, grads_list: list[list[np.ndarray]]) -> None:
        parameters = list(self.network.parameters())
        for grads in grads_list:
            if len(grads) != len(parameters):
                raise ConfigError(
                    f"push carries {len(grads)} dense gradients, "
                    f"model has {len(parameters)} parameters"
                )
        scale = np.float32(1.0) / np.float32(len(grads_list))
        for index, param in enumerate(parameters):
            total = grads_list[0][index].copy()
            for grads in grads_list[1:]:
                total += grads[index]
            total *= scale
            param.grad = total
        self.nn_optimizer.step()
        self.network.zero_grad()

    def _apply_emb(self, keys: np.ndarray, grads: np.ndarray) -> None:
        """Fold one gradient batch into storage as optimizer deltas.

        The optimizer state advances here (server-side), then each delta
        is added onto the committed row and the batch written back with
        one ``put``.  Because neither row optimizer reads row values,
        ``row + delta`` is bit-identical to the fused ``updated_rows``
        path — IEEE ``a + (-x) == a - x``.
        """
        deltas = self.emb_optimizer.delta_rows(keys, grads)
        self.tables.put(keys, self.tables.peek(keys) + deltas)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: int) -> None:
        """Register a worker with the progress clock."""
        self.progress.register(worker_id)

    def deregister_worker(self, worker_id: int) -> None:
        """Remove a worker from the progress clock."""
        self.progress.deregister(worker_id)
