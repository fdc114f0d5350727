"""The four workloads: what each builds, runs, counts and checks.

Each workload is built from ``--seed`` alone, runs a fixed number of ops
(``WARMUP_OPS`` untimed, then ``ops`` timed) through the repo's public
entry points, and hands back the boundary marks, counter snapshots and
check results the worker turns into metrics.  Why these four:

``dlrm_mem``
    DLRM with the whole table resident.  The in-memory index / word
    admission / log loop is ~85-90% of a step, so a batch-native engine
    must show here, and look-ahead or disk work must show nothing.
``dlrm_ooc``
    Same data and model with a buffer of ~13% of the log.  The only
    workload larger than the program's own buffer: disk reads, page
    flush/evict, look-ahead staging and the overflow table do the work,
    and the simulated and wall clocks pull apart.  Runs at ``ASP_BOUND``
    because of the staleness leak described in the README.
``gnn_dense``
    GAT over sampled subgraphs.  Dense forward/backward is ~60% of the
    step and the engine ~35%: the bypass for engine changes and the
    target for ``nn`` ones.
``serve_restored``
    Populate, checkpoint twice through the cloud uploader, restore
    read-only with a 1 MiB buffer per shard and serve a closed loop of
    256 users through ``ServingLoop``.  The same engine used differently
    (snapshot reads, no admission, every record on disk, the shard
    wrapper and the admission cache in front), so a training-side gain
    that costs committed reads, the wrapper or restore shows here.
"""

from __future__ import annotations

import math
import os
import zlib
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.checkpoint import CloudCheckpointer
from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.core.staleness import ASP_BOUND
from repro.data.arrivals import ThinkTimeProcess
from repro.data.ctr import CTRDataset
from repro.data.graphs import GraphDataset
from repro.data.sampling import NeighborSampler
from repro.device import GPUModel, SimClock, SSDModel
from repro.kv.common.serialization import encode_vectors
from repro.kv.sharded import ShardedKVStore
from repro.models import FFNN, GAT
from repro.serve import BatchPolicy, EmbeddingServer, LoadGenerator, ServingLoop
from repro.serve.loadgen import ClosedLoopArrivals
from repro.train import DLRMTrainer, GNNTrainer, TrainerConfig

from e2e.estimators import Calibrator, Laps, fast_decile, quantile, steady_total
from e2e.trace import Tracer, maybe_wrap

DIM = 32
VECTOR_BYTES = DIM * 4
WARMUP_OPS = 20
POPULATE_CHUNK = 2048
SAMPLED_KEYS = 1000
REQUESTS_PER_OP = 4096
#: The dataset itself (CTR schema and popularity, the graph) is the same
#: for every ``--seed``; the seed draws the batch stream, the sampled
#: neighbours, the request keys and the stored rows.  A graph per seed
#: moved ``gnn_dense`` by 10% from seed to seed with nothing to learn
#: from it.
DATASET_SEED = 0


class Phases:
    """Set-up ledger: every phase is a :class:`Laps`, chunked or one-shot.

    A chunked phase (populate, batch generation, warm-up ops) is charged
    ``chunks x p25(chunk time)``; a one-shot phase (open, checkpoint,
    upload, restore) its whole time.  Both on calibrated seconds.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self._calibrator = calibrator
        self.entries: list[tuple[str, bool, Laps]] = []

    def chunked(self, name: str) -> Laps:
        laps = Laps(self._calibrator)
        self.entries.append((name, True, laps))
        return laps

    @contextmanager
    def once(self, name: str) -> Iterator[None]:
        laps = Laps(self._calibrator)
        self.entries.append((name, False, laps))
        laps.mark()
        try:
            yield
        finally:
            laps.mark()

    def steady_seconds(self) -> float:
        return sum(
            steady_total(laps.calibrated()) if chunked else sum(laps.calibrated())
            for _, chunked, laps in self.entries
        )

    def wall_seconds(self) -> float:
        return sum(sum(laps.raw()) for _, _, laps in self.entries)

    def laps_of(self, name: str) -> Laps:
        return next(laps for n, _, laps in self.entries if n == name)

    def wall_of(self, name: str) -> float:
        return sum(self.laps_of(name).raw())


def synthetic_rows(keys: np.ndarray, version: int, seed: int) -> np.ndarray:
    """Deterministic float32 rows for ``keys``: what populate/update write
    and what the checks expect to read back."""
    keys = np.asarray(keys, dtype=np.int64)
    lane = np.arange(DIM, dtype=np.int64)
    mixed = (keys[:, None] * 31 + lane[None, :] * 17 + version * 7919 + seed * 104729) % 2003
    return ((mixed - 1001).astype(np.float32)) * np.float32(5e-5)


def put_in_chunks(laps: Laps, tables: EmbeddingTables, keys: np.ndarray,
                  version: int, seed: int) -> None:
    """Write ``synthetic_rows`` for ``keys`` through the facade, one mark
    per ``POPULATE_CHUNK`` keys."""
    laps.mark()
    for start in range(0, len(keys), POPULATE_CHUNK):
        chunk = keys[start : start + POPULATE_CHUNK]
        tables.put(chunk, synthetic_rows(chunk, version, seed))
        laps.mark()


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tree_bytes(root: str) -> int:
    total = 0
    for directory, _, names in os.walk(root):
        for name in names:
            total += os.path.getsize(os.path.join(directory, name))
    return total


class Workload:
    """Shared skeleton; subclasses fill in build/run/counters/checks."""

    name = ""

    def __init__(self, seed: int, ops: int, warmup: int, workdir: str,
                 tracer: Optional[Tracer], small: bool) -> None:
        self.seed = seed
        self.ops = ops
        self.warmup = warmup
        self.workdir = workdir
        self.tracer = tracer
        self.small = small
        self.sim: list[float] = []
        self.snapshots: dict[int, dict[str, float]] = {}
        self.failures: list[str] = []
        self.failed_ops = 0

    # -- helpers -------------------------------------------------------
    def boundary(self, laps: Laps) -> None:
        """One op boundary: stamp + kernel, sim clock, counter snapshot."""
        laps.mark()
        index = len(self.sim)
        self.sim.append(self.clock.now)
        if index in (self.warmup, self.warmup + self.ops):
            self.snapshots[index] = self.counters()
        if self.tracer is not None:
            self.tracer.next_op()

    def delta(self, key: str) -> float:
        first = self.snapshots[self.warmup]
        last = self.snapshots[self.warmup + self.ops]
        return last[key] - first[key]

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def at_end(self, key: str) -> float:
        return self.snapshots[self.warmup + self.ops][key]

    # -- what a subclass reports beyond the shared metrics ---------------
    def sim_p95_seconds(self) -> float:
        """The workload's simulated tail: per op, or per request."""
        raise NotImplementedError

    def counted(self, phases: Phases) -> dict[str, float]:
        """Its own exact per-layer counts."""
        raise NotImplementedError

    def timed(self, times, phases: Phases) -> dict[str, float]:
        """Its own per-layer times, from a traced pass (``times`` is the
        worker's ``LayerTimes``)."""
        raise NotImplementedError

    def probe_engine(self, keys: np.ndarray) -> int:
        """Drive the engine calls an op makes for ``keys``; returns how
        many key operations that was."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
class TrainingWorkload(Workload):
    batch_size = 256
    staleness_bound = 4
    lookahead_distance = 0
    pipeline_depth = 2

    def table_keys(self) -> int:
        raise NotImplementedError

    def budget_bytes(self) -> int:
        """MLKV's in-memory log window."""
        raise NotImplementedError

    def build_task(self, gpu: GPUModel, config: TrainerConfig):
        """Dataset + network + trainer for this task."""
        raise NotImplementedError

    def make_batches(self, count: int, chunk_seed: int) -> list:
        raise NotImplementedError

    def build(self, phases: Phases) -> None:
        tracer = self.tracer
        with phases.once("open"):
            self.clock = SimClock()
            self.ssd = SSDModel(self.clock)
            gpu = GPUModel(self.clock)
            self.store = MLKV(
                os.path.join(self.workdir, "store"),
                staleness_bound=self.staleness_bound,
                ssd=self.ssd,
                memory_budget_bytes=self.budget_bytes(),
            )
            self.tables = EmbeddingTables(self.store, DIM, seed=0, cache_entries=0)
        with phases.once("data"):
            config = TrainerConfig(
                batch_size=self.batch_size,
                pipeline_depth=self.pipeline_depth,
                lookahead_distance=self.lookahead_distance,
                # The trainer ends a run with one evaluation pass; keep it
                # the size of a step so it does not set the peak RSS.
                eval_size=self.batch_size,
            )
            self.build_task(gpu, config)
        store, tables, trainer = self.store, self.tables, self.trainer
        maybe_wrap(tracer, tables, "get", "emb.get")
        maybe_wrap(tracer, tables, "put", "emb.put")
        maybe_wrap(tracer, tables, "lookahead", "emb.lookahead")
        maybe_wrap(tracer, store, "multi_get", "kv.multi_get")
        maybe_wrap(tracer, store, "multi_put", "kv.multi_put")
        maybe_wrap(tracer, store, "lookahead", "kv.lookahead")
        maybe_wrap(tracer, store, "snapshot_read_many", "kv.snapshot_read_many")
        maybe_wrap(tracer, store, "checkpoint", "ckpt.local")
        maybe_wrap(tracer, trainer, "compute_gradients", "nn.fwd_bwd")
        maybe_wrap(tracer, trainer.nn_optimizer, "step", "nn.dense_opt")
        maybe_wrap(tracer, trainer.network, "zero_grad", "nn.dense_opt")
        maybe_wrap(tracer, trainer.emb_optimizer, "updated_rows", "nn.row_opt")

        keys = np.arange(self.table_keys(), dtype=np.int64)
        put_in_chunks(phases.chunked("populate"), tables, keys, 0, self.seed)

        generate = phases.chunked("batches")
        self.batches: list = []
        generate.mark()
        # One batch more than ops closes the last op; ``lookahead_distance``
        # more keep the look-ahead window full through the last timed op.
        for index in range(self.warmup + self.ops + 1 + self.lookahead_distance):
            self.batches.extend(self.make_batches(1, self.seed * 100_003 + index + 1))
            generate.mark()

    def run(self, laps: Laps) -> None:
        trainer = self.trainer
        inner = trainer.compute_gradients

        def op_boundary(batch, unique_keys, rows):
            self.boundary(laps)
            return inner(batch, unique_keys, rows)

        trainer.compute_gradients = op_boundary
        self.result = trainer.run(self.batches, samples_per_batch=self.batch_size)

    def counters(self) -> dict[str, float]:
        stats, mlkv, log = self.store.stats, self.store.mlkv_stats, self.store.log
        out = dict(self.ssd.stats())
        out.update(
            gets=stats.gets, puts=stats.puts, hits=stats.hits, misses=stats.misses,
            stall_events=mlkv.stall_events, cas_retries=mlkv.cas_retries,
            lookahead_copied=mlkv.lookahead_copied,
            lookahead_skipped=mlkv.lookahead_skipped_memory,
            lookahead_requests=mlkv.lookahead_requests,
            overflow_entries=mlkv.overflow_entries,
            log_resident_bytes=log.memory_bytes_used(),
        )
        return out

    def work_per_op(self) -> list[float]:
        return [float(self.batch_size)] * self.ops

    def user_bytes(self) -> float:
        return (self.delta("gets") + self.delta("puts")) * VECTOR_BYTES

    def live_keys(self) -> int:
        return len(self.store)

    def finish(self, phases: Phases) -> None:
        losses = self.result.losses
        timed = losses[self.warmup : self.warmup + self.ops]
        self.failed_ops = sum(1 for loss in timed if not math.isfinite(loss))
        self.loss_crc = zlib.crc32(np.asarray(losses, dtype=np.float64).tobytes())
        self.check(len(losses) == len(self.batches), "a training step is missing")
        stats = self.store.stats
        self.check(stats.hits + stats.misses == stats.gets, "hits + misses != gets")
        # The last rows put for a sample of keys must read back, through
        # the committed-read path, after everything the run did to the log.
        rng = np.random.default_rng(self.seed ^ 0x5A17)
        sample = rng.choice(self.table_keys(), size=min(SAMPLED_KEYS, self.table_keys()),
                            replace=False).astype(np.int64)
        rows = synthetic_rows(sample, 1, self.seed)
        self.tables.put(sample, rows)
        self.check(np.array_equal(self.tables.peek(sample), rows),
                   "tables.peek does not return the last rows put")
        with phases.once("checkpoint"):
            self.store.checkpoint()
        self.stored_bytes = tree_bytes(self.workdir)
        self.log_file_bytes = os.path.getsize(self.store.log.path)

    def sim_p95_seconds(self) -> float:
        timed = self.sim[self.warmup : self.warmup + self.ops + 1]
        return quantile([b - a for a, b in zip(timed, timed[1:])], 0.95)

    def counted(self, phases: Phases) -> dict[str, float]:
        ops, delta = self.ops, self.delta
        # Between the first and last timed mark the trainer fetched the
        # batches *after* the first mark's, up to the last mark's.
        fetched = self.batches[self.warmup + 1 : self.warmup + ops + 1]
        touched = sum(len(self.trainer.embedding_keys(batch)) for batch in fetched)
        return {
            "data.batch_gen_ms_per_op": 1e3 * fast_decile(phases.laps_of("batches").calibrated()),
            "emb.unique_keys_per_op": delta("gets") / ops,
            "emb.dup_ratio": 1.0 - ratio(delta("gets"), touched),
            "kv.stall_events_per_op": delta("stall_events") / ops,
            "kv.cas_retries_per_op": delta("cas_retries") / ops,
            "kv.lookahead_copied_per_op": delta("lookahead_copied") / ops,
            "kv.lookahead_skipped_ratio": ratio(
                delta("lookahead_skipped"), delta("lookahead_requests")
            ),
            "kv.overflow_entries": self.at_end("overflow_entries"),
            "ckpt.local_checkpoint_mb_per_s": self.stored_bytes / 1e6
            / phases.wall_of("checkpoint"),
        }

    def timed(self, times, phases: Phases) -> dict[str, float]:
        multi_get, multi_put = times.ms("kv.multi_get"), times.ms("kv.multi_put")
        return {
            "train.step_self_ms": times.ms_of(times.unattributed),
            "train.attributed_share": times.share(times.ledger.attributed),
            "nn.fwd_bwd_ms_per_op": times.ms("nn.fwd_bwd"),
            "nn.dense_opt_ms_per_op": times.ms("nn.dense_opt"),
            "nn.row_opt_ms_per_op": times.ms("nn.row_opt"),
            "nn.share": times.share(
                times.ledger.seconds("nn.fwd_bwd", "nn.dense_opt", "nn.row_opt")
            ),
            "emb.get_ms_per_op": times.ms("emb.get"),
            "emb.put_ms_per_op": times.ms("emb.put"),
            "emb.get_self_ms_per_op": times.ms("emb.get", self_only=True),
            "emb.put_self_ms_per_op": times.ms("emb.put", self_only=True),
            "emb.lookahead_ms_per_op": times.ms("emb.lookahead"),
            "kv.multi_get_ms_per_op": multi_get,
            "kv.multi_put_ms_per_op": multi_put,
            "kv.lookahead_ms_per_op": times.ms("kv.lookahead"),
            "kv.get_us_per_key": ratio(multi_get * 1e3, self.delta("gets") / self.ops),
            "kv.put_us_per_key": ratio(multi_put * 1e3, self.delta("puts") / self.ops),
        }

    def probe_keys(self) -> list[np.ndarray]:
        """Key sets of the last ten timed ops, for the post-run probes."""
        last = self.warmup + self.ops
        return [
            np.unique(self.trainer.embedding_keys(batch))
            for batch in self.batches[max(self.warmup, last - 10) : last]
        ]

    def probe_engine(self, keys: np.ndarray) -> int:
        listed = keys.tolist()
        self.store.multi_get(listed)
        self.store.multi_put(listed, encode_vectors(synthetic_rows(keys, 2, self.seed)))
        return 2 * len(listed)

    def close(self) -> None:
        self.store.close()


class DlrmMem(TrainingWorkload):
    name = "dlrm_mem"

    def table_keys(self) -> int:
        return 26 * (400 if self.small else 4000)

    def budget_bytes(self) -> int:  # the 13 MB table stays resident
        return 256 << 20

    def build_task(self, gpu, config) -> None:
        self.dataset = CTRDataset(
            num_fields=26, field_cardinality=self.table_keys() // 26, seed=DATASET_SEED
        )
        network = FFNN(self.dataset.num_dense, self.dataset.num_fields, DIM)
        self.trainer = DLRMTrainer(self.tables, network, gpu, config, self.dataset)

    def make_batches(self, count, chunk_seed) -> list:
        return self.dataset.batches(count, self.batch_size, seed=chunk_seed)


class DlrmOoc(DlrmMem):
    name = "dlrm_ooc"
    staleness_bound = ASP_BOUND
    lookahead_distance = 4

    def budget_bytes(self) -> int:  # ~13% of the populated log
        return (1 << 18) if self.small else (2 << 20)


class GnnDense(TrainingWorkload):
    name = "gnn_dense"
    batch_size = 64

    def table_keys(self) -> int:
        return 2000 if self.small else 20000

    def budget_bytes(self) -> int:
        return 64 << 20

    def build_task(self, gpu, config) -> None:
        self.graph = GraphDataset(num_nodes=self.table_keys(), seed=DATASET_SEED)
        network = GAT(in_dim=DIM, hidden_dim=256, num_classes=self.graph.num_classes)
        sampler = NeighborSampler(self.graph, fanouts=(5, 5), mode="mask", seed=self.seed)
        self.trainer = GNNTrainer(self.tables, network, gpu, config, self.graph, sampler)

    def make_batches(self, count, chunk_seed) -> list:
        return self.trainer.make_batches(count, seed=chunk_seed)


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class RecordingArrivals(ClosedLoopArrivals):
    """The closed-loop user pool, keeping what its users observed.

    The load generator is the benchmark's side of the wire: it records
    each request's latency exactly (the server's own histogram is
    log-bucketed) and keeps every ``stride``-th answer for the check.
    """

    def __init__(self, *args, stride: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.latencies = array("d")
        self.sampled: list[tuple[int, object]] = []
        self._stride = stride

    def on_complete(self, request, now: float) -> None:
        self.latencies.append(now - request.arrival_time)
        if len(self.latencies) % self._stride == 0:
            self.sampled.append((request.key, request.value))
        super().on_complete(request, now)


class ServeRestored(Workload):
    name = "serve_restored"
    shards = 4
    users = 256
    think_seconds = 20e-6
    cache_entries = 4096
    restore_budget_bytes = 1 << 20

    def table_keys(self) -> int:
        return 8000 if self.small else 100_000

    def _sharded(self, base: str, ssd: SSDModel) -> ShardedKVStore:
        return ShardedKVStore(
            lambda index: MLKV(
                os.path.join(base, f"shard_{index}"), ssd=ssd,
                memory_budget_bytes=64 << 20,
            ),
            self.shards,
            directory=base,
        )

    def build(self, phases: Phases) -> None:
        tracer = self.tracer
        keys = np.arange(self.table_keys(), dtype=np.int64)
        with phases.once("open"):
            train_ssd = SSDModel(SimClock())
            store = self._sharded(os.path.join(self.workdir, "train"), train_ssd)
            tables = EmbeddingTables(store, DIM, seed=0, cache_entries=0)
            uploader = CloudCheckpointer(store, os.path.join(self.workdir, "bucket"))
        maybe_wrap(tracer, store, "checkpoint", "ckpt.local")
        maybe_wrap(tracer, uploader, "restore_to", "ckpt.download")

        put_in_chunks(phases.chunked("populate"), tables, keys, 0, self.seed)
        with phases.once("checkpoint"):
            uploader.checkpoint()
        self.first_epoch_bytes = uploader.bytes_uploaded

        rng = np.random.default_rng(self.seed ^ 0xA11CE)
        self.updated = np.sort(
            rng.choice(len(keys), size=len(keys) // 10, replace=False)
        ).astype(np.int64)
        put_in_chunks(phases.chunked("update"), tables, self.updated, 1, self.seed)
        with phases.once("checkpoint_incremental"):
            uploader.checkpoint()
        self.uploader = uploader
        self.train_ssd_stats = train_ssd.stats()
        store.close()

        with phases.once("restore"):
            self.clock = SimClock()
            self.ssd = SSDModel(self.clock)
            self.store = uploader.restore(
                os.path.join(self.workdir, "serve"),
                read_only=True,
                factory=lambda index, directory: MLKV.restore(
                    directory, ssd=self.ssd,
                    memory_budget_bytes=self.restore_budget_bytes,
                ),
            )
        with phases.once("open_server"):
            self.server = EmbeddingServer(
                self.store, dim=DIM, cache_entries=self.cache_entries,
                read_mode="snapshot",
            )
            self.loop = ServingLoop(self.server, BatchPolicy(256, 100e-6))
            total_ops = self.warmup + self.ops
            generator = LoadGenerator(len(keys), "zipfian", seed=self.seed)
            budget = total_ops * (REQUESTS_PER_OP + 256)
            self.arrivals = RecordingArrivals(
                self.users,
                generator.chooser(),
                ThinkTimeProcess(self.think_seconds, seed=self.seed ^ 0xC33),
                total_requests=budget,
                start=self.clock.now,
                seed=self.seed,
                stride=max(1, self.ops * REQUESTS_PER_OP // SAMPLED_KEYS),
            )
        maybe_wrap(tracer, self.server, "lookup_unique", "serve.lookup")
        maybe_wrap(tracer, self.loop.batcher, "form", "serve.batch_form")
        maybe_wrap(tracer, self.store, "snapshot_read_many", "shard.snapshot_read_many")
        for shard in self.store.shards:
            maybe_wrap(tracer, shard, "snapshot_read_many", "kv.snapshot_read_many")

    def boundary(self, laps: Laps) -> None:
        super().boundary(laps)
        tiers = self.server.cache.tiers
        self.completed.append(len(self.arrivals.latencies))
        self.past_cache.append(
            tiers.store_memory_hits + tiers.store_disk_reads + tiers.lazy_inits
        )

    def run(self, laps: Laps) -> None:
        #: Per boundary: requests completed, keys that went past the cache.
        self.completed: list[int] = []
        self.past_cache: list[int] = []
        for _ in range(self.warmup + self.ops):
            self.boundary(laps)
            try:
                self.loop.run(self.arrivals, max_requests=REQUESTS_PER_OP)
            except Exception as error:  # an op that raises is a failed op
                self.failed_ops += 1
                self.failures.append(f"serving op raised {error!r}")
        self.boundary(laps)

    def counters(self) -> dict[str, float]:
        stats, tiers = self.store.stats, self.server.cache.tiers
        batcher = self.loop.batcher
        out = dict(self.ssd.stats())
        out.update(
            gets=stats.gets, puts=stats.puts, hits=stats.hits, misses=stats.misses,
            cache_hits=tiers.cache_hits, store_memory=tiers.store_memory_hits,
            store_disk=tiers.store_disk_reads, lazy_inits=tiers.lazy_inits,
            batches=batcher.batches_formed, batched=batcher.requests_batched,
            coalesced=batcher.requests_coalesced,
            log_resident_bytes=sum(
                shard.log.memory_bytes_used() for shard in self.store.shards
            ),
        )
        for index, routed in enumerate(stats.extra["shard_ops"]):
            out[f"shard_ops_{index}"] = routed
        return out

    def work_per_op(self) -> list[float]:
        timed = self.completed[self.warmup : self.warmup + self.ops + 1]
        return [float(b - a) for a, b in zip(timed, timed[1:])]

    def timed_latencies(self) -> array:
        return self.arrivals.latencies[
            self.completed[self.warmup] : self.completed[self.warmup + self.ops]
        ]

    def user_bytes(self) -> float:
        return sum(self.work_per_op()) * VECTOR_BYTES

    def live_keys(self) -> int:
        return len(self.store)

    def finish(self, phases: Phases) -> None:
        self.loss_crc = 0
        self.check(len(self.store) == self.table_keys(),
                   f"restored store holds {len(self.store)} keys")
        stats = self.store.stats
        self.check(stats.hits + stats.misses == stats.gets, "hits + misses != gets")
        updated = np.zeros(self.table_keys(), dtype=bool)
        updated[self.updated] = True
        wrong = 0
        for key, value in self.arrivals.sampled:
            expected = synthetic_rows(np.array([key]), int(updated[key]), self.seed)[0]
            if value is None or not np.array_equal(value, expected):
                wrong += 1
        self.check(len(self.arrivals.sampled) >= min(SAMPLED_KEYS, self.ops),
                   "too few served vectors were sampled")
        self.check(wrong == 0, f"{wrong} served vectors differ from the stored value")
        self.stored_bytes = tree_bytes(self.workdir)
        self.log_file_bytes = sum(
            os.path.getsize(shard.log.path) for shard in self.store.shards
        )

    def sim_p95_seconds(self) -> float:
        return quantile(self.timed_latencies(), 0.95)

    def counted(self, phases: Phases) -> dict[str, float]:
        delta = self.delta
        routed = [delta(f"shard_ops_{index}") for index in range(self.shards)]
        answered = delta("cache_hits") + self.store_keys()
        latencies = self.timed_latencies()
        second_epoch = self.uploader.bytes_uploaded - self.first_epoch_bytes
        return {
            "shard.imbalance": ratio(max(routed), sum(routed) / len(routed)),
            "serve.cache_hit_ratio": ratio(delta("cache_hits"), answered),
            "serve.coalesced_fraction": ratio(delta("coalesced"), delta("batched")),
            "serve.mean_batch_size": ratio(delta("batched"), delta("batches")),
            "serve.store_disk_ratio": ratio(
                delta("store_disk"), delta("store_disk") + delta("store_memory")
            ),
            "serve.sim_p50_us": quantile(latencies, 0.50) * 1e6,
            "serve.sim_p99_us": quantile(latencies, 0.99) * 1e6,
            "ckpt.image_bytes_per_user_byte": self.first_epoch_bytes
            / (self.table_keys() * VECTOR_BYTES),
            "ckpt.incremental_skipped_ratio": ratio(
                self.uploader.bytes_skipped, self.uploader.bytes_skipped + second_epoch
            ),
        }

    def store_keys(self) -> float:
        """Keys that went past the cache to the store in the timed ops."""
        return self.delta("store_memory") + self.delta("store_disk") + self.delta("lazy_inits")

    def timed(self, times, phases: Phases) -> dict[str, float]:
        local = self.tracer.durations("ckpt.local")
        download = sum(self.tracer.durations("ckpt.download"))
        upload_seconds = (phases.wall_of("checkpoint")
                          + phases.wall_of("checkpoint_incremental") - sum(local))
        image_mb = self.first_epoch_bytes / 1e6
        # Sub-calls are counted by spans, so keys are those of the same ops.
        subcalls = sum(times.ledger.calls.get("kv.snapshot_read_many", ()))
        first = self.warmup
        fanned_out = sum(
            self.past_cache[first + slot + 1] - self.past_cache[first + slot]
            for slot in times.recorded
        )
        return {
            "serve.lookup_ms_per_op": times.ms("serve.lookup"),
            "serve.batch_form_ms_per_op": times.ms("serve.batch_form"),
            "serve.loop_self_ms_per_op": times.ms_of(times.unattributed),
            "kv.snapshot_read_us_per_key": ratio(
                times.ms("kv.snapshot_read_many") * 1e3, self.store_keys() / self.ops
            ),
            "shard.keys_per_subcall": ratio(fanned_out, subcalls),
            "ckpt.local_checkpoint_mb_per_s": ratio(image_mb, local[0]),
            "ckpt.upload_mb_per_s": ratio(self.uploader.bytes_uploaded / 1e6, upload_seconds),
            "ckpt.restore_mb_per_s": ratio(image_mb, download),
            "ckpt.reopen_s": phases.wall_of("restore") - download,
        }

    def probe_engine(self, keys: np.ndarray) -> int:
        self.store.snapshot_read_many(keys.tolist())
        return len(keys)

    def probe_keys(self) -> list[np.ndarray]:
        chooser = LoadGenerator(self.table_keys(), "zipfian", seed=self.seed + 1).chooser()
        return [
            np.unique([chooser.next_key() for _ in range(256)]) for _ in range(10)
        ]

    def close(self) -> None:
        self.server.close()


WORKLOADS: dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (DlrmMem, DlrmOoc, GnnDense, ServeRestored)
}
