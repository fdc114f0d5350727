"""The distributed training engine: N workers, one parameter server.

Simulates a parameter-server fleet on the deterministic clock stack.
Worker compute runs on private :class:`WorkerClockView` timelines (so N
workers genuinely overlap); every pull and push serializes on the shared
base clock, which doubles as the server's timeline.  The engine owns the
batch queue — workers take the next batch when they finish their last,
which is what makes elasticity trivial: a killed worker simply stops
taking batches (its unpushed batch returns to the queue head), a joining
worker starts taking them.

Three regimes, one scheduler:

``sync``
    Barrier rounds.  Every live worker pulls the same pre-round state,
    dense gradients are averaged and stepped once, embedding deltas
    apply in worker-id order.  One worker in sync mode is bit-identical
    to :class:`~repro.train.loop.BaseTrainer`.
``bounded``
    SSP: a worker may start a step only while its completed-step lead
    over the slowest worker is within ``staleness_bound`` — MLKV's
    bounded-staleness admission, spanning workers instead of records.
``async``
    No bound; fastest worker wins, stale gradients and all.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro._arrays import sorted_unique
from repro.core.embedding import EmbeddingTables
from repro.device.clock import WorkerClockView
from repro.device.gpu import GPUModel
from repro.errors import ConfigError
from repro.nn.layers import Module
from repro.train.dist.chaos import StragglerInjector
from repro.train.dist.server import ParameterServer
from repro.train.dist.worker import Worker
from repro.train.loop import BaseTrainer, TrainerConfig, TrainResult

MODES = ("sync", "bounded", "async")


@dataclass
class DistConfig:
    """Fleet shape and coordination regime."""

    num_workers: int = 2
    mode: str = "sync"
    staleness_bound: int = 1
    #: Simulated network time per RPC leg (pull response / push receipt),
    #: charged to the shared clock so server traffic serializes.
    rpc_seconds: float = 50e-6

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ConfigError("num_workers must be positive")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.staleness_bound < 0:
            raise ConfigError("staleness_bound must be >= 0")
        if self.rpc_seconds < 0:
            raise ConfigError("rpc_seconds must be >= 0")


class DistributedTrainer:
    """Drives N simulated workers against a :class:`ParameterServer`.

    Parameters
    ----------
    tables:
        Embedding facade over the server's store.  Distributed runs use
        plain/sharded/replicated stores: the *server* owns cross-worker
        staleness, and stacking MLKV's per-record admission under it
        would double-count every pull.
    network:
        Canonical dense model (lives on the server; workers get bitwise
        replicas).
    gpu:
        GPU cost model on the shared base clock; each worker gets its own
        :class:`GPUModel` with the same ratings on a private clock view.
    config:
        Single-node trainer knobs (optimizers, batch size, eval cadence).
    dist:
        Fleet shape and coordination mode.
    adapter_factory:
        ``(tables, network, gpu, config) -> BaseTrainer`` building the
        task trainer (DLRM/KGE/...).  Called once per worker with the
        worker's replica + private GPU, and once for the server-side
        evaluator with the canonical network.
    chaos:
        Optional :class:`StragglerInjector` with scheduled faults.
    """

    def __init__(
        self,
        tables: EmbeddingTables,
        network: Module,
        gpu: GPUModel,
        config: TrainerConfig,
        dist: DistConfig,
        adapter_factory: Callable[..., BaseTrainer],
        chaos: Optional[StragglerInjector] = None,
    ) -> None:
        self.tables = tables
        self.gpu = gpu
        self.clock = gpu.clock
        self.config = config
        self.dist = dist
        self.adapter_factory = adapter_factory
        self.chaos = chaos
        bound: Optional[int]
        if dist.mode == "bounded":
            bound = dist.staleness_bound
        elif dist.mode == "sync":
            bound = 0
        else:
            bound = None
        self.server = ParameterServer(
            tables, network, config, staleness_bound=bound
        )
        self.evaluator = adapter_factory(tables, network, gpu, config)
        self._template_flops = gpu.flops_per_second
        self.workers: dict[int, Worker] = {}
        self._next_worker_id = 0
        for _ in range(dist.num_workers):
            self.add_worker()
        self.stall_events = 0
        self.lost_pushes = 0
        self._losses: dict[int, float] = {}
        self._result = TrainResult(metric_name=self.evaluator.metric_name)

    # ------------------------------------------------------------------
    # fleet membership (also the chaos surface)
    # ------------------------------------------------------------------
    def add_worker(self) -> int:
        """Join a new worker at the current simulated time; returns its id.

        The worker registers at the fleet's *minimum* progress, so under
        a staleness bound it neither blocks others nor is blocked by its
        own zero step count.
        """
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        view = WorkerClockView(self.clock, name=f"worker{worker_id}")
        worker_gpu = GPUModel(
            view,
            flops_per_second=self._template_flops,
            kernel_overhead=self.gpu.kernel_overhead,
        )
        replica = copy.deepcopy(self.server.network)
        adapter = self.adapter_factory(self.tables, replica, worker_gpu, self.config)
        self.workers[worker_id] = Worker(worker_id, adapter, view)
        self.server.register_worker(worker_id)
        return worker_id

    def kill_worker(self, worker_id: int) -> None:
        """Abrupt death: an unpushed computed batch is discarded and
        re-queued by the engine; the progress clock forgets the worker so
        it cannot gate anyone's staleness lead."""
        worker = self.workers.get(worker_id)
        if worker is None or not worker.alive:
            return
        worker.alive = False
        self.server.deregister_worker(worker_id)

    def slow_worker(self, worker_id: int, factor: float) -> None:
        """Slow one worker's compute by ``factor`` (straggler injection)."""
        self.workers[worker_id].slow_down(factor)

    def heal_worker(self, worker_id: int) -> None:
        """Restore a slowed worker to the template compute speed."""
        self.workers[worker_id].restore_speed(self._template_flops)

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(
        self, batches: Sequence, samples_per_batch: Optional[int] = None
    ) -> TrainResult:
        """Train the fleet over ``batches``; returns the combined result.

        Losses land in *batch order* regardless of which worker computed
        them, so a 1-worker run's trajectory compares elementwise with a
        ``BaseTrainer`` run over the same schedule.
        """
        samples_per_batch = samples_per_batch or self.config.batch_size
        schedule = [
            sorted_unique(self.evaluator.embedding_keys(batch)) for batch in batches
        ]
        queue: deque[tuple[int, object]] = deque(enumerate(batches))
        start = self.clock.now
        self._eval_marker = 0
        self._run_start = start
        if self.dist.mode == "sync":
            self._run_sync(queue, schedule)
        else:
            self._run_async(queue, schedule)
        self.clock.drain()
        result = self._result
        wall = max(
            [self.clock.now] + [worker.view.now for worker in self.workers.values()]
        )
        result.steps = len(self.server.applied_batches)
        result.samples = result.steps * samples_per_batch
        result.sim_seconds = wall - start
        if result.sim_seconds > 0:
            result.throughput = result.samples / result.sim_seconds
        result.losses = [self._losses[index] for index in sorted(self._losses)]
        result.stall_events = self.stall_events
        for worker in self.workers.values():
            adapter_result = worker.adapter._result
            result.forward_seconds += adapter_result.forward_seconds
            result.backward_seconds += adapter_result.backward_seconds
        result.final_metric = self._offline_eval()
        if not result.history or result.history[-1][1] != result.final_metric:
            result.history.append((result.sim_seconds, result.final_metric))
        return result

    # ------------------------------------------------------------------
    def _run_sync(self, queue: deque, schedule: list) -> None:
        while queue:
            self._fire_chaos(self._frontier())
            workers = self._active_workers()
            if not workers:
                raise ConfigError("all workers died; cannot finish the epoch")
            assignments: list[tuple[Worker, int, object]] = []
            for worker in workers:
                if not queue:
                    break
                index, batch = queue.popleft()
                assignments.append((worker, index, batch))
            packets = []
            requeue = []
            for worker, index, batch in assignments:
                packet = self._pull_and_compute(worker, index, batch, schedule)
                # The kill window: a worker dying between compute and the
                # barrier takes its packet with it; the batch re-queues.
                self._fire_chaos(max(self.clock.now, worker.now))
                if worker.alive:
                    packets.append(packet)
                else:
                    self.lost_pushes += 1
                    requeue.append((index, batch))
            for item in reversed(requeue):
                queue.appendleft(item)
            if not packets:
                continue
            # Barrier: nobody's round ends before the slowest compute.
            barrier = max(
                [self.clock.now]
                + [worker.now for worker, _, _ in assignments if worker.alive]
            )
            self._seek_base(barrier)
            applied = self.server.apply_round(packets)
            self._charge_rpc(len(packets))
            for worker in self._active_workers():
                worker.wait_until(self.clock.now)
            for packet in packets:
                self._losses[packet.batch_index] = packet.loss
            self._maybe_eval(applied)

    def _run_async(self, queue: deque, schedule: list) -> None:
        """Event-driven bounded/fully-async scheduling.

        Each worker alternates two timestamped events — *pull* (start the
        next queued batch) and *push* (deliver a computed packet) — and
        the engine always processes the earliest event, so the shared
        base clock advances in event order and one worker's compute never
        delays another's pull.  Pulls are gated by the SSP bound; pushes
        always land (they are what lets the stragglers catch up).
        """
        bound = self.server.staleness_bound
        pending: dict[int, tuple] = {}  # worker_id -> (packet, index, batch)
        blocked: set[int] = set()
        while queue or pending:
            self._fire_chaos(self._frontier())
            workers = self._active_workers()
            if not workers:
                raise ConfigError("all workers died; cannot finish the epoch")
            alive_ids = {worker.worker_id for worker in workers}
            for worker_id in [wid for wid in pending if wid not in alive_ids]:
                # Killed with a computed-but-unpushed packet: the packet
                # dies with the worker, the batch goes back to the queue.
                _, index, batch = pending.pop(worker_id)
                self.lost_pushes += 1
                queue.appendleft((index, batch))
            candidates = []  # (time, kind-priority, worker_id, kind)
            for worker in workers:
                if worker.worker_id in pending:
                    candidates.append((worker.now, 0, worker.worker_id, "push"))
                elif queue:
                    candidates.append((worker.now, 1, worker.worker_id, "pull"))
            if not candidates:
                break  # queue drained; remaining workers are idle
            candidates.sort()
            chosen = None
            for _, _, worker_id, kind in candidates:
                if kind == "push" or self.server.progress.admissible(
                    worker_id, bound
                ):
                    chosen = (worker_id, kind)
                    break
                if worker_id not in blocked:
                    # This worker is the next one free, but its lead over
                    # the slowest worker is at the bound: an SSP stall.
                    blocked.add(worker_id)
                    self.stall_events += 1
            if chosen is None:
                raise ConfigError(
                    "staleness bound deadlock (no admissible worker)"
                )
            worker_id, kind = chosen
            worker = self.workers[worker_id]
            if kind == "pull":
                blocked.discard(worker_id)
                index, batch = queue.popleft()
                packet = self._pull_and_compute(worker, index, batch, schedule)
                pending[worker_id] = (packet, index, batch)
                continue
            packet, index, batch = pending.pop(worker_id)
            self._seek_base(worker.now)
            # The kill window: events due before the push lands fire now,
            # so a kill scheduled mid-flight discards this packet.
            self._fire_chaos(max(self.clock.now, worker.now))
            if not worker.alive:
                self.lost_pushes += 1
                queue.appendleft((index, batch))
                continue
            applied = self.server.push_deltas(packet)
            self._charge_rpc(1)
            worker.wait_until(self.clock.now)
            if applied:
                self._losses[packet.batch_index] = packet.loss
                self._maybe_eval(1)

    def _pull_and_compute(self, worker: Worker, index: int, batch, schedule):
        """One worker's pull + local compute; returns the push packet.

        The pull serializes on the shared clock (the server handles one
        request at a time); the compute lands on the worker's private
        timeline, overlapping other workers' compute.
        """
        keys = schedule[index]
        self._seek_base(worker.now)
        rows, dense = self.server.pull_rows(worker.worker_id, keys)
        self._charge_rpc(1)
        worker.wait_until(self.clock.now)
        worker.load_dense(dense)
        return worker.compute(batch, keys, rows, index)

    # ------------------------------------------------------------------
    # clock plumbing
    # ------------------------------------------------------------------
    def _seek_base(self, when: float) -> None:
        """Idle the server forward to ``when`` (a request arriving from a
        worker whose private time is ahead).  ``ps_idle`` carries no rated
        power, so idling is wall-clock-only."""
        if when > self.clock.now:
            self.clock.advance(when - self.clock.now, component="ps_idle")

    def _charge_rpc(self, legs: int) -> None:
        if self.dist.rpc_seconds and legs:
            self.clock.advance(legs * self.dist.rpc_seconds, component="net")

    def _frontier(self) -> float:
        """The earliest instant any live worker can next act."""
        workers = self._active_workers()
        if not workers:
            return self.clock.now
        return min(worker.now for worker in workers)

    def _active_workers(self) -> list[Worker]:
        return sorted(
            (worker for worker in self.workers.values() if worker.alive),
            key=lambda worker: worker.worker_id,
        )

    def _fire_chaos(self, now: float) -> int:
        if self.chaos is None:
            return 0
        return self.chaos.fire_due(now, self, self.server.store)

    # ------------------------------------------------------------------
    # evaluation (off the training clock, on the canonical model)
    # ------------------------------------------------------------------
    def _maybe_eval(self, newly_applied: int) -> None:
        if not self.config.eval_every:
            return
        self._eval_marker += newly_applied
        if self._eval_marker >= self.config.eval_every:
            self._eval_marker %= self.config.eval_every
            wall = max(
                [self.clock.now]
                + [worker.view.now for worker in self.workers.values()]
            )
            self._result.history.append(
                (wall - self._run_start, self._offline_eval())
            )

    def _offline_eval(self) -> float:
        state = self.clock.snapshot()
        try:
            return self.evaluator.evaluate()
        finally:
            self.clock.restore(state)
