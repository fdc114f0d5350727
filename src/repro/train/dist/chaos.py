"""Scheduled fault injection for distributed training.

The training-side vocabulary over the shared
:class:`~repro.device.faults.FaultSchedule` (the serving tier's
``ChaosInjector`` is the other): events are scheduled at simulated
instants and fired by the training engine as its clock passes them, so a
worker dies *mid-epoch* with batches in flight and a replica dies
*mid-push* with deltas half-fanned-out — the only honest way to test the
exactly-once ledger and a replica group's hinted handoff.
"""

from __future__ import annotations

from repro.device.faults import FaultSchedule
from repro.errors import ConfigError


class StragglerInjector(FaultSchedule):
    """Time-scheduled worker and replica faults for a training run.

    ``fire_due(now, engine, store)``: the engine implements the worker
    events; a replica event acts on the
    :class:`~repro.kv.replicated.ReplicaGroup` serving its shard of the
    engine's store.
    """

    # ------------------------------------------------------------------
    # worker faults
    # ------------------------------------------------------------------
    def slow_worker_at(
        self, at: float, worker_id: int, factor: float
    ) -> "StragglerInjector":
        """Divide one worker's GPU throughput by ``factor`` at ``at``."""
        if factor <= 0:
            raise ConfigError(f"slow-down factor must be positive, got {factor}")
        self._schedule(
            at, f"slow:{worker_id}x{factor:g}", "slow_worker", (worker_id, factor)
        )
        return self

    def heal_worker_at(self, at: float, worker_id: int) -> "StragglerInjector":
        """Restore a slowed worker to full speed."""
        self._schedule(at, f"heal:{worker_id}", "heal_worker", (worker_id,))
        return self

    def kill_worker_at(self, at: float, worker_id: int) -> "StragglerInjector":
        """Kill a worker; an in-flight computed-but-unpushed batch is lost
        from the worker (never from training — the engine re-queues it)."""
        self._schedule(at, f"kill:{worker_id}", "kill_worker", (worker_id,))
        return self

    def add_worker_at(self, at: float) -> "StragglerInjector":
        """Grow the fleet by one worker (engine's ``worker_factory``)."""
        self._schedule(at, "add-worker", "add_worker", ())
        return self

    # ------------------------------------------------------------------
    # server-side (replica) faults, on the backing store's groups
    # ------------------------------------------------------------------
    def kill_replica_at(
        self, at: float, shard: int, replica: int
    ) -> "StragglerInjector":
        """Kill one store replica — including *during* a push fan-out."""
        self._schedule(at, f"kill-replica:{shard}/{replica}", "fail", (replica,), shard)
        return self

    def revive_replica_at(self, at: float, shard: int, replica: int) -> "StragglerInjector":
        """Schedule a replica revival (with catch-up) at ``at``."""
        self._schedule(at, f"revive-replica:{shard}/{replica}", "revive", (replica,), shard)
        return self
