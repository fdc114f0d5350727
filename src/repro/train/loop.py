"""The asynchronous embedding-training pipeline shared by all tasks.

One training step (paper Figure 4, steps 1–8):

1. the look-ahead engine prefetches upcoming batches (buffer and/or
   cache destinations),
2. ``tables.get`` fetches this batch's unique embedding rows with one
   batched ``multi_get`` against the store (per-op overhead amortizes
   across the minibatch; a sharded store fans the batch out per shard) —
   a Get that exceeds the staleness bound triggers the registered stall
   handler, which applies the oldest pending updates until the key admits
   (this is where synchronous training burns time in Figure 2),
3. the task-specific ``forward_backward`` runs the network and produces
   gradients with respect to the fetched rows (compute charged to the
   simulated GPU: 1× forward, 2× backward),
4. the sparse optimizer turns gradients into updated rows, which join the
   *pending queue*; entries older than ``pipeline_depth`` batches are
   applied (``tables.put``) — so embeddings used at iteration ``t`` were
   last updated at ``t − pipeline_depth`` (the staleness ``s`` of §II-A).

``pipeline_depth = 0`` gives BSP (every update applied before the next
fetch); a large depth with ``staleness_bound = ∞`` gives ASP; a depth
with a finite bound gives SSP, where the *store*, not the trainer,
enforces the bound per key.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro._arrays import sorted_unique
from repro.core.embedding import EmbeddingTables
from repro.core.lookahead import LookaheadEngine
from repro.device.gpu import GPUModel
from repro.errors import ConfigError
from repro.nn.layers import Module
from repro.nn.optim import Adam, RowAdagrad
from repro.nn.tensor import Tensor
from repro.obs.trace import span as obs_span


@dataclass
class TrainerConfig:
    """Knobs shared by every task trainer."""

    batch_size: int = 128
    pipeline_depth: int = 0
    lookahead_distance: int = 0
    conventional_window: int = 0
    emb_lr: float = 0.05
    nn_lr: float = 0.005
    eval_every: int = 0
    eval_size: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if self.pipeline_depth < 0 or self.lookahead_distance < 0:
            raise ConfigError("pipeline_depth and lookahead_distance must be >= 0")


@dataclass
class TrainResult:
    """Everything the benchmark figures need from one training run."""

    steps: int = 0
    samples: int = 0
    sim_seconds: float = 0.0
    throughput: float = 0.0
    emb_access_seconds: float = 0.0
    forward_seconds: float = 0.0
    backward_seconds: float = 0.0
    stall_events: int = 0
    final_metric: float = 0.0
    metric_name: str = ""
    history: list[tuple[float, float]] = field(default_factory=list)  # (sim_s, metric)
    losses: list[float] = field(default_factory=list)

    def breakdown(self) -> dict[str, float]:
        """Latency breakdown percentages (Figure 2, left)."""
        total = self.emb_access_seconds + self.forward_seconds + self.backward_seconds
        if total == 0:
            return {"emb_access": 0.0, "forward": 0.0, "backward": 0.0}
        return {
            "emb_access": 100.0 * self.emb_access_seconds / total,
            "forward": 100.0 * self.forward_seconds / total,
            "backward": 100.0 * self.backward_seconds / total,
        }


class BaseTrainer:
    """Pipeline harness; subclasses implement the task specifics.

    Parameters
    ----------
    tables:
        Embedding facade over MLKV or a baseline store.
    network:
        Dense model (its parameters train with Adam on the "GPU").
    gpu:
        Compute cost model; shares the clock with the store's SSD model.
    config:
        Pipeline and optimizer knobs.
    """

    metric_name = "metric"

    def __init__(
        self,
        tables: EmbeddingTables,
        network: Module,
        gpu: GPUModel,
        config: TrainerConfig,
    ) -> None:
        self.tables = tables
        self.network = network
        self.gpu = gpu
        self.clock = gpu.clock
        self.config = config
        self.emb_optimizer = RowAdagrad(lr=config.emb_lr)
        self.nn_optimizer = Adam(network.parameters(), lr=config.nn_lr)
        self.pending: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._result = TrainResult(metric_name=self.metric_name)
        self._start_step = 0
        self._lookahead: Optional[LookaheadEngine] = None  # set by run()
        tables.store.set_stall_handler(self._on_stall)

    # ------------------------------------------------------------------
    # task-specific hooks
    # ------------------------------------------------------------------
    def embedding_keys(self, batch) -> np.ndarray:  # pragma: no cover - abstract
        """All embedding keys the batch touches (duplicates fine)."""
        raise NotImplementedError

    def forward_backward(
        self, batch, unique_keys: np.ndarray, rows: np.ndarray
    ) -> tuple[float, np.ndarray]:  # pragma: no cover - abstract
        """Run the model; returns ``(loss_value, grads_wrt_rows)``."""
        raise NotImplementedError

    def evaluate(self) -> float:  # pragma: no cover - abstract
        """Compute the task metric on held-out data (committed reads)."""
        raise NotImplementedError

    def batch_flops(self, batch) -> float:
        """Forward FLOPs for the batch (default: per-sample × batch size)."""
        return self.config.batch_size * self.network.flops_per_sample()

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------
    def run(
        self,
        batches: Sequence,
        samples_per_batch: Optional[int] = None,
        checkpointer=None,
        checkpoint_every: Optional[int] = None,
    ) -> TrainResult:
        """Train over ``batches``; returns the accumulated result.

        When a :class:`~repro.core.checkpoint.CloudCheckpointer` is given,
        the trainer saves its resume state into the store's checkpoint
        image and uploads an epoch every ``checkpoint_every`` steps
        (defaulting to the checkpointer's own ``every_n_steps`` cadence,
        so there is one cadence knob) — a killed run restarts from the
        last epoch via :meth:`load_checkpoint` and reproduces the
        uninterrupted run's loss trajectory step for step.

        After :meth:`load_state_dict` the first ``step`` batches of the
        schedule are treated as already trained and skipped; pass the
        *full* batch schedule again when resuming.
        """
        config = self.config
        result = self._result
        samples_per_batch = samples_per_batch or config.batch_size
        schedule = [sorted_unique(self.embedding_keys(batch)) for batch in batches]
        engine = self._lookahead = LookaheadEngine(
            self.tables,
            schedule,
            distance=config.lookahead_distance,
            conventional_window=self._clamped_window(),
            pipeline_depth=config.pipeline_depth,
        )
        if checkpointer is not None and checkpoint_every is None:
            checkpoint_every = checkpointer.every_n_steps
        start = self.clock.now
        self._run_start = start
        for step, batch in enumerate(batches):
            if step < self._start_step:
                continue
            with obs_span("train.step", clock=self.clock, step=step):
                engine.advance(step)
                self._train_one(batch, schedule[step])
            result.steps += 1
            result.samples += samples_per_batch
            if config.eval_every and (step + 1) % config.eval_every == 0:
                self._record_eval(start)
            if (
                checkpointer is not None
                and checkpoint_every
                and (step + 1) % checkpoint_every == 0
            ):
                self.checkpoint(checkpointer, step + 1)
        self.flush_pending()
        self.clock.drain()
        result.sim_seconds = self.clock.now - start
        if result.sim_seconds > 0:
            result.throughput = result.samples / result.sim_seconds
        result.final_metric = self._offline_eval()
        if not result.history or result.history[-1][1] != result.final_metric:
            result.history.append((result.sim_seconds, result.final_metric))
        return result

    def compute_gradients(
        self, batch, unique_keys: np.ndarray, rows: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """One forward/backward with GPU cost accounting; no state updates.

        Returns ``(loss_value, grads_wrt_rows)`` with dense gradients left
        in ``network.parameters()[i].grad`` — the caller decides what to
        do with them (step the local optimizer, or ship them to a
        parameter server).  Extracted from :meth:`_train_one` so the
        distributed workers run the *identical* compute/timing path.
        """
        result = self._result
        flops = self.batch_flops(batch)
        t1 = self.clock.now
        loss_value, grads = self.forward_backward(batch, unique_keys, rows)
        self.gpu.charge(flops)
        result.forward_seconds += self.clock.now - t1

        t2 = self.clock.now
        self.gpu.charge(2.0 * flops)  # backward ≈ 2× forward
        result.backward_seconds += self.clock.now - t2
        return loss_value, grads

    def _train_one(self, batch, unique_keys: np.ndarray) -> None:
        result = self._result
        t0 = self.clock.now
        rows = self.tables.get(unique_keys)
        result.emb_access_seconds += self.clock.now - t0

        with obs_span("nn.fwd_bwd", clock=self.clock):
            loss_value, grads = self.compute_gradients(batch, unique_keys, rows)
        with obs_span("nn.dense_opt", clock=self.clock):
            self.nn_optimizer.step()
            self.network.zero_grad()
        result.losses.append(loss_value)

        with obs_span("nn.row_opt", clock=self.clock, keys=len(unique_keys)):
            new_rows = self.emb_optimizer.updated_rows(unique_keys, rows, grads)
        self.pending.append((unique_keys, new_rows))
        t3 = self.clock.now
        while len(self.pending) > self.config.pipeline_depth:
            self._apply_oldest()
        result.emb_access_seconds += self.clock.now - t3

        # Settle overlapped I/O: prefetch may run at most its window depth
        # ahead of the consumer, so excess backlog is a real device stall.
        t4 = self.clock.now
        self.clock.drain_step(self._carry_budget())
        result.emb_access_seconds += self.clock.now - t4

    def _on_stall(self, key: int) -> bool:
        """MLKV's stall hook: make progress by applying pending updates.

        Every admission an engine refuses calls it once, whichever engine
        of the store holds the key, so counting here counts the stalls
        of the whole store.
        """
        self._result.stall_events += 1
        if not self.pending:
            return False
        self._apply_oldest()
        return True

    def _apply_oldest(self) -> None:
        keys, rows = self.pending.popleft()
        self.tables.put(keys, rows)

    def flush_pending(self) -> None:
        while self.pending:
            self._apply_oldest()

    # ------------------------------------------------------------------
    # resumable checkpoints
    # ------------------------------------------------------------------
    TRAINER_STATE_FILE = "trainer.state.pkl"

    def state_dict(self, step: Optional[int] = None) -> dict:
        """Everything a resumed run needs to reproduce this trajectory.

        Embedding *values* live in the store (captured by the store's own
        checkpoint); this captures the trainer-side state: completed step
        count, dense network parameters, both optimizer states, the
        pending (not-yet-applied) update queue, and RNG states.
        """
        if step is None:
            step = self._start_step + self._result.steps
        rng = getattr(self, "rng", None)
        return {
            "step": step,
            "network": [param.data.copy() for param in self.network.parameters()],
            "nn_optimizer": self.nn_optimizer.state_dict(),
            "emb_optimizer": self.emb_optimizer.state_dict(),
            "pending": [(keys.copy(), rows.copy()) for keys, rows in self.pending],
            "np_random": np.random.get_state(),
            "rng": rng.bit_generator.state if rng is not None else None,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore trainer state; the next :meth:`run` resumes after
        ``state['step']`` batches of its schedule."""
        parameters = list(self.network.parameters())
        if len(state["network"]) != len(parameters):
            raise ConfigError(
                f"checkpoint holds {len(state['network'])} network tensors, "
                f"model has {len(parameters)}"
            )
        for param, saved in zip(parameters, state["network"]):
            param.data[...] = saved
        self.nn_optimizer.load_state_dict(state["nn_optimizer"])
        self.emb_optimizer.load_state_dict(state["emb_optimizer"])
        self.pending = deque(
            (np.array(keys, copy=True), np.array(rows, copy=True))
            for keys, rows in state["pending"]
        )
        self._start_step = state["step"]
        if state.get("np_random") is not None:
            np.random.set_state(state["np_random"])
        rng = getattr(self, "rng", None)
        if rng is not None and state.get("rng") is not None:
            rng.bit_generator.state = state["rng"]

    def save_checkpoint(self, path: str, step: Optional[int] = None) -> None:
        """Pickle :meth:`state_dict` to ``path`` (atomic replace)."""
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            pickle.dump(self.state_dict(step), f)
        os.replace(tmp, path)

    def load_checkpoint(self, path: str) -> None:
        """Load a state file (or the default file inside a store image)."""
        if os.path.isdir(path):
            path = os.path.join(path, self.TRAINER_STATE_FILE)
        with open(path, "rb") as f:
            self.load_state_dict(pickle.load(f))

    def checkpoint(self, checkpointer, step: Optional[int] = None) -> Optional[int]:
        """Save resume state *inside* the store image, then upload an epoch.

        The pickle lands under the store's checkpoint root, so the
        incremental uploader ships trainer state and store state as one
        atomic epoch — a restore hands back both or neither.
        """
        self.save_checkpoint(
            os.path.join(self.tables.store.checkpoint_root(), self.TRAINER_STATE_FILE), step
        )
        return checkpointer.checkpoint()

    # ------------------------------------------------------------------
    # model export for the serving tier
    # ------------------------------------------------------------------
    SERVABLE_FILE = "servable.model.pkl"

    def export_servable(self, path: Optional[str] = None) -> str:
        """Write everything a serving node needs to score with this model.

        The servable bundles the dense network (pickled whole — its
        parameters are autograd leaves, so no backward closures ride
        along) with the embedding-table schema (``dim``, lazy-init seed
        and scale) so a restored :class:`~repro.serve.EmbeddingServer`
        reproduces the in-process model's scores *exactly*, including the
        deterministic lazy initialization of keys training never touched.

        By default the file lands under the store's checkpoint root, so
        the next :meth:`checkpoint` upload ships it inside the same
        atomic epoch as the embedding values it matches.  Returns the
        path written.
        """
        tables = self.tables
        if path is None:
            path = os.path.join(tables.store.checkpoint_root(), self.SERVABLE_FILE)
        self.network.eval()
        try:
            servable = {
                "network": self.network,
                "network_type": f"{type(self.network).__module__}."
                                f"{type(self.network).__qualname__}",
                "dim": tables.dim,
                "seed": tables.seed,
                "init_scale": tables.init_scale,
                "metric_name": self.metric_name,
                "trained_steps": self._start_step + self._result.steps,
            }
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                pickle.dump(servable, f)
            os.replace(tmp, path)
        finally:
            self.network.train()
        return path

    def _carry_budget(self) -> float:
        """Seconds of background I/O allowed to stay in flight.

        Proportional to how many batches ahead any prefetcher reaches —
        the look-ahead as far as the buffer lets it, not as far as it was
        asked to: deeper windows legitimately overlap more future compute.
        """
        reach = 0 if self._lookahead is None else self._lookahead.buffer_window()
        window_batches = max(1, reach, self._clamped_window(), self.config.pipeline_depth)
        steps = max(1, self._result.steps + 1)
        avg_step = (self.clock.now - getattr(self, "_run_start", 0.0)) / steps
        return window_batches * max(avg_step, 1e-6)

    def _clamped_window(self) -> int:
        """Conventional prefetch window, limited by the staleness bound.

        Each cache prefetch performs a Get admission, and each in-flight
        pipeline stage holds one more; to stay within the bound the
        window may only use the slack the pipeline leaves (paper
        §III-C2: conventional prefetching cannot exceed the bound).
        """
        bound = self.tables.store.staleness_bound
        window = self.config.conventional_window
        if bound is None:
            return window
        slack = max(0, bound - self.config.pipeline_depth)
        return int(min(window, slack))

    # ------------------------------------------------------------------
    # evaluation (off the training clock)
    # ------------------------------------------------------------------
    def _record_eval(self, start: float) -> None:
        elapsed = self.clock.now - start
        metric = self._offline_eval()
        self._result.history.append((elapsed, metric))

    def _offline_eval(self) -> float:
        state = self.clock.snapshot()
        try:
            return self.evaluate()
        finally:
            self.clock.restore(state)

    # ------------------------------------------------------------------
    @staticmethod
    def gather_index(unique_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Positions of ``keys`` inside sorted ``unique_keys``:
        ``np.searchsorted(unique_keys, keys)``, searched in key order — one
        sort of the batch, then a search whose successive probes stay close
        together in ``unique_keys`` instead of landing at random — and
        scattered back."""
        flat = keys.reshape(-1)
        order = np.argsort(flat)
        positions = np.empty(flat.shape, dtype=np.intp)
        positions[order] = np.searchsorted(unique_keys, flat[order])
        return positions.reshape(keys.shape)

    @staticmethod
    def leaf(rows: np.ndarray) -> Tensor:
        """Wrap fetched rows as the autograd leaf for sparse gradients."""
        return Tensor(rows, requires_grad=True)
