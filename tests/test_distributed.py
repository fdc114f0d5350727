"""Parameter-server distributed training: equivalence, SSP, and faults.

The load-bearing properties, in test order:

* ``WorkerClockView`` timelines overlap compute without losing busy time.
* ``EmbeddingTables.peek``, what the server's apply reads, decodes
  stored rows and initializes absent ones on plain, sharded, and
  replicated stores, reads current rows from a revived replica, and
  admits nothing.
* Delta-form optimizers are bit-identical to their fused row form, and
  delta batches commute exactly on disjoint keys (with documented
  bounded divergence on overlapping keys).
* A 1-worker sync ``DistributedTrainer`` is **bit-identical** to
  ``BaseTrainer`` on DLRM and KGE; N-worker runs reproduce themselves.
* Killing a worker mid-epoch or a store replica mid-push (RF=2) loses
  no delta and double-applies none; the replica-kill sync run is
  bit-identical to the fault-free run, and a push while routed reads
  prefer a revived replica folds onto current rows.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.data import CTRDataset, KGDataset
from repro.device import GPUModel, SimClock, SSDModel
from repro.errors import ConfigError, StalenessViolation
from repro.kv.faster import FasterKV
from repro.kv.replicated import ReplicaGroup
from repro.kv.sharded import ShardedKVStore
from repro.models import FFNN, DistMult
from repro.nn.optim import RowAdagrad, RowAdam
from repro.train import (
    DistConfig,
    DistributedTrainer,
    DLRMTrainer,
    KGETrainer,
    StragglerInjector,
    TrainerConfig,
    WorkerProgressClock,
)
from repro.train.dist.server import ParameterServer, PushPacket
from repro.device.clock import WorkerClockView

DIM = 8
SEED = 0
CTR = CTRDataset(num_fields=4, field_cardinality=400, seed=3)
KG = KGDataset(num_entities=1200, num_relations=6, seed=5)


def make_stack(root, kind="faster", gpu_flops=5e9, shards=2, replication=2):
    clock = SimClock()
    ssd = SSDModel(clock)
    if kind == "faster":
        store = FasterKV(str(root / "f"), ssd=ssd)
    elif kind == "sharded":
        store = ShardedKVStore(
            lambda index: FasterKV(str(root / f"s{index}"), ssd=ssd),
            num_shards=shards,
            directory=str(root),
        )
    elif kind == "replicated":
        store = ShardedKVStore(
            lambda shard: ReplicaGroup(
                [FasterKV(str(root / f"s{shard}r{replica}"), ssd=ssd)
                 for replica in range(replication)]
            ),
            num_shards=shards,
        )
    else:  # pragma: no cover - test bug
        raise ValueError(kind)
    tables = EmbeddingTables(store, DIM, cache_entries=0)
    gpu = GPUModel(clock, flops_per_second=gpu_flops)
    return SimpleNamespace(
        clock=clock, ssd=ssd, store=store, tables=tables, gpu=gpu
    )


def dlrm_config(**overrides):
    defaults = {"batch_size": 16, "seed": SEED}
    defaults.update(overrides)
    return TrainerConfig(**defaults)


def run_dist(
    root,
    *,
    workers=2,
    mode="sync",
    bound=1,
    kind="faster",
    num_batches=12,
    chaos=None,
    config=None,
    gpu_flops=5e9,
):
    """Run a DLRM fleet; returns (trainer, result, stack, network)."""
    stack = make_stack(root, kind=kind, gpu_flops=gpu_flops)
    config = config or dlrm_config()
    rng = np.random.default_rng(config.seed)
    network = FFNN(
        num_dense=CTR.num_dense, num_fields=CTR.num_fields, emb_dim=DIM, rng=rng
    )
    trainer = DistributedTrainer(
        stack.tables,
        network,
        stack.gpu,
        config,
        DistConfig(num_workers=workers, mode=mode, staleness_bound=bound),
        lambda tables, net, gpu, cfg: DLRMTrainer(tables, net, gpu, cfg, CTR),
        chaos=chaos,
    )
    result = trainer.run(CTR.batches(num_batches, config.batch_size))
    return trainer, result, stack, network


def all_embedding_bits(tables, num_keys):
    rows = tables.peek(np.arange(num_keys, dtype=np.int64))
    return rows.view(np.uint32)


def network_bits(network):
    return [param.data.view(np.uint32).copy() for param in network.parameters()]


# ----------------------------------------------------------------------
# clock views
# ----------------------------------------------------------------------
class TestWorkerClockView:
    def test_advance_is_local_but_busy_is_shared(self):
        base = SimClock()
        a = WorkerClockView(base, "a")
        b = WorkerClockView(base, "b")
        a.advance(2.0, component="gpu")
        b.advance(3.0, component="gpu")
        assert base.now == 0.0  # compute overlaps: base time did not move
        assert a.now == 2.0 and b.now == 3.0
        assert base.busy_seconds("gpu") == 5.0  # both devices' work counted

    def test_wait_until_idles_without_busy(self):
        base = SimClock()
        view = WorkerClockView(base)
        assert view.wait_until(1.5) == 1.5
        assert view.now == 1.5 and view.waited_seconds == 1.5
        assert view.wait_until(1.0) == 0.0  # never rewinds
        assert base.components() == {}

    def test_view_starts_at_base_now(self):
        base = SimClock()
        base.advance(4.0)
        assert WorkerClockView(base).now == 4.0

    def test_negative_charges_rejected(self):
        base = SimClock()
        with pytest.raises(ValueError):
            WorkerClockView(base).advance(-1.0)
        with pytest.raises(ValueError):
            base.note_busy(-1.0)


# ----------------------------------------------------------------------
# cross-worker progress clock
# ----------------------------------------------------------------------
class TestWorkerProgressClock:
    def test_lead_and_admission(self):
        progress = WorkerProgressClock()
        progress.register(0)
        progress.register(1)
        progress.complete(0)
        progress.complete(0)
        assert progress.lead(0) == 2 and progress.lead(1) == 0
        assert not progress.admissible(0, bound=1)
        assert progress.admissible(1, bound=0)
        assert progress.admissible(0, bound=None)  # unbounded = async

    def test_joiner_starts_at_minimum(self):
        progress = WorkerProgressClock()
        progress.register(0)
        for _ in range(5):
            progress.complete(0)
        progress.register(1)
        assert progress.lead(1) == 0  # joins at min, not at zero

    def test_deregister_unblocks_the_fleet(self):
        progress = WorkerProgressClock()
        progress.register(0)
        progress.register(1)
        progress.complete(0)
        assert not progress.admissible(0, bound=0)
        progress.deregister(1)  # the slow worker died
        assert progress.admissible(0, bound=0)

    def test_double_register_rejected(self):
        progress = WorkerProgressClock()
        progress.register(0)
        with pytest.raises(ConfigError):
            progress.register(0)


# ----------------------------------------------------------------------
# the rows the server's apply reads
# ----------------------------------------------------------------------
class TestPeek:
    @pytest.mark.parametrize("kind", ["faster", "sharded", "replicated"])
    def test_stored_rows_decode_and_absent_keys_initialize(self, tmp_path, kind):
        stack = make_stack(tmp_path, kind=kind)
        tables = stack.tables
        written = np.arange(10, dtype=np.int64)
        rows = np.random.default_rng(0).normal(size=(10, DIM)).astype(np.float32)
        tables.put(written, rows)
        keys = np.array([12, 3, 0, 11, 9], dtype=np.int64)
        got = tables.peek(keys)
        np.testing.assert_array_equal(got[[1, 2, 4]], rows[[3, 0, 9]])
        np.testing.assert_array_equal(got[0], tables.init_vector(12))
        np.testing.assert_array_equal(got[3], tables.init_vector(11))
        assert stack.store.multi_get([11, 12]) == [None, None]  # not inserted
        stack.store.close()

    def test_reads_current_rows_from_a_revived_replica(self, tmp_path):
        """A revive replays what the replica missed before it serves, so
        the rows an update folds onto are current whichever replica the
        read routes to."""
        ssd = SSDModel(SimClock())
        store = ShardedKVStore(
            lambda shard: ReplicaGroup(
                [FasterKV(str(tmp_path / f"s{shard}r{replica}"), ssd=ssd)
                 for replica in range(2)],
            ),
            num_shards=2,
        )
        tables = EmbeddingTables(store, DIM, cache_entries=0)
        keys = np.arange(16, dtype=np.int64)
        tables.put(keys, np.ones((16, DIM), dtype=np.float32))
        for group in store.shards:
            group.fail(1)
        new = np.full((16, DIM), 2.0, dtype=np.float32)
        tables.put(keys, new)  # replica 1 misses this write
        for group in store.shards:
            group.revive(1)
            group.slow(0, 1e-3)
            assert group.pick_reader() == 1
        np.testing.assert_array_equal(tables.peek(keys), new)
        store.close()

    def test_reads_past_an_mlkv_staleness_bound_without_admission(self, tmp_path):
        """What an update folds onto is a committed read: it neither waits
        on nor advances a key's staleness clock."""
        store = MLKV(str(tmp_path / "m"), staleness_bound=0)
        tables = EmbeddingTables(store, DIM, cache_entries=0)
        rows = np.random.default_rng(2).normal(size=(4, DIM)).astype(np.float32)
        tables.put(np.arange(4, dtype=np.int64), rows)
        store.get(1)  # key 1 now sits at the BSP bound
        assert store.staleness_of(1) == 1
        np.testing.assert_array_equal(tables.peek(np.arange(4)), rows)
        assert [store.staleness_of(key) for key in range(4)] == [0, 1, 0, 0]
        store.close()


# ----------------------------------------------------------------------
# delta-form optimizers
# ----------------------------------------------------------------------
class TestDeltaForm:
    def _grads(self, n, seed):
        return np.random.default_rng(seed).normal(size=(n, DIM)).astype(np.float32)

    @pytest.mark.parametrize("restored", [False, True])
    def test_adagrad_delta_bitwise_equals_row_form(self, restored):
        """``restored``: half-way, the delta side restarts from its own
        checkpointed state, as a parameter server does after a failure."""
        keys = np.array([3, 7, 3 + 11, 40], dtype=np.int64)
        rows = self._grads(4, 1)
        fused = RowAdagrad(lr=0.05)
        delta = RowAdagrad(lr=0.05)
        for seed in range(5):  # state advances identically across batches
            if restored and seed == 2:
                state, delta = delta.state_dict(), RowAdagrad(lr=0.05)
                delta.load_state_dict(state)
            grads = self._grads(4, 10 + seed)
            via_rows = fused.updated_rows(keys, rows, grads)
            via_delta = rows + delta.delta_rows(keys, grads)
            np.testing.assert_array_equal(
                via_rows.view(np.uint32), via_delta.view(np.uint32)
            )
            rows = via_rows

    def test_adam_delta_bitwise_equals_row_form(self):
        keys = np.array([1, 2, 9], dtype=np.int64)
        rows = self._grads(3, 2)
        fused = RowAdam(lr=0.01)
        delta = RowAdam(lr=0.01)
        for seed in range(5):
            grads = self._grads(3, 20 + seed)
            via_rows = fused.updated_rows(keys, rows, grads)
            via_delta = rows + delta.delta_rows(keys, grads)
            np.testing.assert_array_equal(
                via_rows.view(np.uint32), via_delta.view(np.uint32)
            )
            rows = via_rows

    @pytest.mark.parametrize("optimizer_cls", [RowAdagrad, RowAdam])
    def test_disjoint_batches_commute_bitwise(self, optimizer_cls):
        """Barrier-window pushes touching disjoint keys may apply in any
        permutation: per-key state never interacts, so the final rows are
        bit-identical."""
        batches = [
            (np.array([0, 1], dtype=np.int64), self._grads(2, 30)),
            (np.array([2, 3], dtype=np.int64), self._grads(2, 31)),
            (np.array([4, 5], dtype=np.int64), self._grads(2, 32)),
        ]
        rows0 = {key: self._grads(1, 40 + key)[0] for key in range(6)}
        outcomes = []
        for perm in itertools.permutations(range(3)):
            optimizer = optimizer_cls(lr=0.05)
            rows = {key: value.copy() for key, value in rows0.items()}
            for index in perm:
                keys, grads = batches[index]
                deltas = optimizer.delta_rows(keys, grads)
                for position, key in enumerate(keys):
                    rows[int(key)] = rows[int(key)] + deltas[position]
            outcomes.append(np.stack([rows[key] for key in range(6)]))
        for other in outcomes[1:]:
            np.testing.assert_array_equal(
                outcomes[0].view(np.uint32), other.view(np.uint32)
            )

    def test_overlapping_adagrad_divergence_is_lr_bounded(self):
        """Overlapping pushes do not commute exactly even for Adagrad:
        the g² accumulator *total* is order-free, but each delta is
        scaled by the accumulator state at its own apply time, which is
        order-dependent.  The divergence is O(lr) per overlapping push
        and the accumulators themselves converge to the same total."""
        keys = np.array([0, 1], dtype=np.int64)
        batches = [self._grads(2, 50 + i) for i in range(3)]
        rows0 = self._grads(2, 60)

        def spread(lr):
            outcomes, accumulators = [], []
            for perm in itertools.permutations(range(3)):
                optimizer = RowAdagrad(lr=lr)
                rows = rows0.copy()
                for index in perm:
                    rows = rows + optimizer.delta_rows(keys, batches[index])
                outcomes.append(rows)
                accumulators.append(
                    np.stack(
                        [optimizer.state_dict()["accumulators"][k] for k in (0, 1)]
                    )
                )
            for other in accumulators[1:]:  # totals commute (up to float assoc)
                np.testing.assert_allclose(accumulators[0], other, rtol=1e-5)
            stacked = np.stack(outcomes)
            return float((stacked.max(axis=0) - stacked.min(axis=0)).max())

        big, small = spread(0.05), spread(0.0005)
        assert 0 < big <= 3 * 0.05  # |delta| <= lr per push (normalized grad)
        assert small < big / 50  # divergence scales away with lr

    def test_overlapping_adam_divergence_is_lr_bounded(self):
        """Adam's moments are EMAs: overlapping pushes genuinely do not
        commute.  The documented bound: permutations differ by O(lr) per
        overlapping push, so shrinking lr shrinks the divergence
        proportionally."""
        keys = np.array([0], dtype=np.int64)
        batches = [self._grads(1, 70 + i) for i in range(3)]
        rows0 = self._grads(1, 80)

        def spread(lr):
            outcomes = []
            for perm in itertools.permutations(range(3)):
                optimizer = RowAdam(lr=lr)
                rows = rows0.copy()
                for index in perm:
                    rows = rows + optimizer.delta_rows(keys, batches[index])
                outcomes.append(rows)
            stacked = np.stack(outcomes)
            return float((stacked.max(axis=0) - stacked.min(axis=0)).max())

        big, small = spread(0.1), spread(0.001)
        assert big > 0  # genuinely order-dependent
        # Each bias-corrected push moves a row by at most ~lr, so two
        # permutations of 3 pushes can differ by at most ~2 * 3 * lr.
        assert big <= 6 * 0.1
        assert small < big / 50  # divergence scales with lr

    def test_row_adam_state_roundtrip(self):
        optimizer = RowAdam(lr=0.01)
        keys = np.array([5, 6], dtype=np.int64)
        optimizer.delta_rows(keys, self._grads(2, 90))
        clone = RowAdam(lr=0.01)
        clone.load_state_dict(optimizer.state_dict())
        grads = self._grads(2, 91)
        np.testing.assert_array_equal(
            optimizer.delta_rows(keys, grads), clone.delta_rows(keys, grads)
        )


# ----------------------------------------------------------------------
# convergence equivalence
# ----------------------------------------------------------------------
class TestOneWorkerSyncParity:
    NUM_BATCHES = 12

    def test_dlrm_bit_identical_to_base_trainer(self, tmp_path):
        config = dlrm_config()
        ref = make_stack(tmp_path / "ref")
        rng = np.random.default_rng(config.seed)
        ref_network = FFNN(
            num_dense=CTR.num_dense, num_fields=CTR.num_fields,
            emb_dim=DIM, rng=rng,
        )
        ref_trainer = DLRMTrainer(ref.tables, ref_network, ref.gpu, config, CTR)
        ref_result = ref_trainer.run(CTR.batches(self.NUM_BATCHES, config.batch_size))

        _, dist_result, stack, network = run_dist(
            tmp_path / "dist", workers=1, mode="sync",
            num_batches=self.NUM_BATCHES,
        )
        assert dist_result.losses == ref_result.losses  # full trajectory
        assert dist_result.final_metric == ref_result.final_metric
        total = CTR.num_fields * CTR.field_cardinality
        np.testing.assert_array_equal(
            all_embedding_bits(ref.tables, total),
            all_embedding_bits(stack.tables, total),
        )
        for ref_bits, dist_bits in zip(
            network_bits(ref_network), network_bits(network)
        ):
            np.testing.assert_array_equal(ref_bits, dist_bits)

    def test_kge_bit_identical_to_base_trainer(self, tmp_path):
        config = TrainerConfig(batch_size=16, emb_lr=0.5, seed=SEED)
        ref = make_stack(tmp_path / "ref")
        rng = np.random.default_rng(config.seed)
        ref_network = DistMult(num_relations=KG.num_relations, dim=DIM, rng=rng)
        ref_trainer = KGETrainer(ref.tables, ref_network, ref.gpu, config, KG)
        batches = KG.batches(10, config.batch_size)
        ref_result = ref_trainer.run(batches)

        stack = make_stack(tmp_path / "dist")
        rng = np.random.default_rng(config.seed)
        network = DistMult(num_relations=KG.num_relations, dim=DIM, rng=rng)
        trainer = DistributedTrainer(
            stack.tables, network, stack.gpu, config,
            DistConfig(num_workers=1, mode="sync"),
            lambda tables, net, gpu, cfg: KGETrainer(tables, net, gpu, cfg, KG),
        )
        dist_result = trainer.run(KG.batches(10, config.batch_size))
        assert dist_result.losses == ref_result.losses
        assert dist_result.final_metric == ref_result.final_metric
        np.testing.assert_array_equal(
            all_embedding_bits(ref.tables, KG.num_entities),
            all_embedding_bits(stack.tables, KG.num_entities),
        )
        for ref_bits, dist_bits in zip(
            network_bits(ref_network), network_bits(network)
        ):
            np.testing.assert_array_equal(ref_bits, dist_bits)


class TestDeterministicReproduction:
    @pytest.mark.parametrize("mode,workers", [("sync", 3), ("bounded", 2), ("async", 2)])
    def test_same_seed_reproduces_exactly(self, tmp_path, mode, workers):
        _, first, stack_a, _ = run_dist(
            tmp_path / "a", workers=workers, mode=mode, bound=2
        )
        _, second, stack_b, _ = run_dist(
            tmp_path / "b", workers=workers, mode=mode, bound=2
        )
        assert first.losses == second.losses
        assert first.sim_seconds == second.sim_seconds
        total = CTR.num_fields * CTR.field_cardinality
        np.testing.assert_array_equal(
            all_embedding_bits(stack_a.tables, total),
            all_embedding_bits(stack_b.tables, total),
        )


# ----------------------------------------------------------------------
# staleness admission across workers
# ----------------------------------------------------------------------
class TestCrossWorkerStaleness:
    def test_pull_raises_beyond_bound(self, tmp_path):
        stack = make_stack(tmp_path)
        config = dlrm_config()
        rng = np.random.default_rng(SEED)
        network = FFNN(
            num_dense=CTR.num_dense, num_fields=CTR.num_fields,
            emb_dim=DIM, rng=rng,
        )
        server = ParameterServer(stack.tables, network, config, staleness_bound=0)
        server.register_worker(0)
        server.register_worker(1)
        server.progress.complete(0)
        with pytest.raises(StalenessViolation):
            server.pull_rows(0, np.array([1, 2], dtype=np.int64))
        rows, dense = server.pull_rows(1, np.array([1, 2], dtype=np.int64))
        assert rows.shape == (2, DIM) and len(dense) > 0

    def test_straggler_stalls_bounded_fleet_but_not_async(self, tmp_path):
        chaos = StragglerInjector().slow_worker_at(0.0, 1, 50.0)
        trainer, result, _, _ = run_dist(
            tmp_path / "bounded", mode="bounded", bound=0,
            chaos=chaos, num_batches=16,
        )
        assert result.stall_events > 0  # fast worker hit the bound
        chaos = StragglerInjector().slow_worker_at(0.0, 1, 50.0)
        trainer, result, _, _ = run_dist(
            tmp_path / "async", mode="async", chaos=chaos, num_batches=16,
        )
        assert result.stall_events == 0  # ASP never waits


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class TestWorkerFaults:
    NUM_BATCHES = 20

    def _fault_free(self, tmp_path, mode="bounded"):
        return run_dist(
            tmp_path / "clean", workers=2, mode=mode, bound=2,
            num_batches=self.NUM_BATCHES,
        )

    def test_kill_mid_epoch_loses_no_batch(self, tmp_path):
        _, clean, _, _ = self._fault_free(tmp_path)
        chaos = StragglerInjector().kill_worker_at(clean.sim_seconds * 0.4, 1)
        trainer, result, _, _ = run_dist(
            tmp_path / "faulted", workers=2, mode="bounded", bound=2,
            num_batches=self.NUM_BATCHES, chaos=chaos,
        )
        assert [f["label"] for f in trainer.chaos.fired] == ["kill:1"]
        assert not trainer.workers[1].alive
        # Exactly once: every batch applied, none lost, none double-applied.
        assert trainer.server.applied_batches.keys() >= set(range(self.NUM_BATCHES))
        assert len(trainer.server.applied_batches) == self.NUM_BATCHES
        assert trainer.server.rejected_pushes == 0
        assert len(result.losses) == self.NUM_BATCHES
        # A packet computed by the victim died with it and was re-queued.
        assert trainer.lost_pushes >= 0
        assert abs(result.final_metric - clean.final_metric) < 0.1

    def test_kill_mid_epoch_sync_mode(self, tmp_path):
        _, clean, _, _ = self._fault_free(tmp_path, mode="sync")
        chaos = StragglerInjector().kill_worker_at(clean.sim_seconds * 0.5, 0)
        trainer, result, _, _ = run_dist(
            tmp_path / "faulted", workers=2, mode="sync",
            num_batches=self.NUM_BATCHES, chaos=chaos,
        )
        assert trainer.server.applied_batches.keys() >= set(range(self.NUM_BATCHES))
        assert len(result.losses) == self.NUM_BATCHES
        assert abs(result.final_metric - clean.final_metric) < 0.1

    def test_duplicate_push_is_rejected(self, tmp_path):
        stack = make_stack(tmp_path)
        config = dlrm_config()
        rng = np.random.default_rng(SEED)
        network = FFNN(
            num_dense=CTR.num_dense, num_fields=CTR.num_fields,
            emb_dim=DIM, rng=rng,
        )
        server = ParameterServer(stack.tables, network, config)
        server.register_worker(0)
        keys = np.array([1, 2], dtype=np.int64)
        server.pull_rows(0, keys)
        packet = PushPacket(
            worker_id=0, seq=0, batch_index=0, keys=keys,
            emb_grads=np.ones((2, DIM), dtype=np.float32),
            dense_grads=[np.zeros_like(p.data) for p in network.parameters()],
            loss=1.0,
        )
        assert server.push_deltas(packet) is True
        before = all_embedding_bits(stack.tables, 3).copy()
        assert server.push_deltas(packet) is False  # retried push: no-op
        assert server.rejected_pushes == 1
        np.testing.assert_array_equal(before, all_embedding_bits(stack.tables, 3))


class TestReplicaFaults:
    NUM_BATCHES = 16

    def test_replica_kill_mid_push_is_transparent(self, tmp_path):
        """RF=2, kill one replica mid-run, revive later: the sync-mode run
        is bit-identical to the fault-free one — zero lost deltas — and
        the revived replica converges back to its peer."""
        _, clean, clean_stack, _ = run_dist(
            tmp_path / "clean", workers=2, mode="sync", kind="replicated",
            num_batches=self.NUM_BATCHES,
        )
        chaos = (
            StragglerInjector()
            .kill_replica_at(clean.sim_seconds * 0.3, 0, 1)
            .revive_replica_at(clean.sim_seconds * 0.75, 0, 1)
        )
        trainer, result, stack, _ = run_dist(
            tmp_path / "faulted", workers=2, mode="sync", kind="replicated",
            num_batches=self.NUM_BATCHES, chaos=chaos,
        )
        assert [f["label"] for f in trainer.chaos.fired] == [
            "kill-replica:0/1", "revive-replica:0/1",
        ]
        assert result.losses == clean.losses  # trajectory untouched by the fault
        assert trainer.server.applied_batches.keys() >= set(range(self.NUM_BATCHES))
        assert trainer.server.rejected_pushes == 0
        total = CTR.num_fields * CTR.field_cardinality
        np.testing.assert_array_equal(
            all_embedding_bits(clean_stack.tables, total),
            all_embedding_bits(stack.tables, total),
        )
        assert stack.store.stats.extra["failovers"] > 0  # the fault was real
        assert stack.store.shards[0].hints_outstanding(1) == 0  # revive caught it up

    def test_replica_kill_without_revive_still_finishes(self, tmp_path):
        chaos = StragglerInjector().kill_replica_at(1e-9, 1, 0)
        trainer, result, stack, _ = run_dist(
            tmp_path / "f", workers=2, mode="bounded", bound=2,
            kind="replicated", num_batches=self.NUM_BATCHES, chaos=chaos,
        )
        assert trainer.server.applied_batches.keys() >= set(range(self.NUM_BATCHES))
        assert len(result.losses) == self.NUM_BATCHES


    def test_push_over_a_revived_reader_loses_no_update(self, tmp_path):
        """Routed reads prefer a replica revived after it missed deltas;
        the revive replayed them, so the server folds each delta onto the
        current row: every replica's rows equal the same pushes on a bare
        engine, bit for bit."""
        ssd = SSDModel(SimClock())
        store = ShardedKVStore(
            lambda shard: ReplicaGroup(
                [FasterKV(str(tmp_path / f"s{shard}r{replica}"), ssd=ssd)
                 for replica in range(2)],
            ),
            num_shards=2,
        )
        twin = FasterKV(str(tmp_path / "twin"), ssd=SSDModel(SimClock()))
        servers = []
        for backing in (store, twin):
            network = FFNN(
                num_dense=CTR.num_dense, num_fields=CTR.num_fields,
                emb_dim=DIM, rng=np.random.default_rng(SEED),
            )
            tables = EmbeddingTables(backing, DIM, cache_entries=0)
            servers.append(ParameterServer(tables, network, dlrm_config()))
        batches = [np.arange(0, 30), np.arange(10, 40), np.arange(0, 50)]

        def push(index):
            keys = batches[index].astype(np.int64)
            grads = np.random.default_rng(index).normal(size=(len(keys), DIM))
            for server in servers:
                server.push_deltas(PushPacket(
                    worker_id=0, seq=index, batch_index=index, keys=keys,
                    emb_grads=grads.astype(np.float32),
                    dense_grads=[
                        np.zeros_like(p.data) for p in server.network.parameters()
                    ],
                    loss=1.0,
                ))

        for server in servers:
            server.register_worker(0)
        push(0)
        for group in store.shards:
            group.fail(1)
        push(1)  # replica 1 misses these deltas
        for group in store.shards:
            assert group.hints_outstanding(1) > 0
            group.revive(1)
            group.slow(0, 1e-3)
            assert group.pick_reader() == 1
        push(2)  # keys 40..49 are new: their base is init_vector
        keys = list(range(50))
        expected = twin.snapshot_read_many(keys)
        assert store.snapshot_read_many(keys) == expected
        for key, value in zip(keys, expected):
            for replica in store.shards[store.shard_of(key)].replicas:
                assert replica.snapshot_read(key) == value
        store.close()
        twin.close()


# ----------------------------------------------------------------------
# elasticity
# ----------------------------------------------------------------------
class TestElasticity:
    def test_worker_joins_mid_run(self, tmp_path):
        _, clean, _, _ = run_dist(tmp_path / "clean", workers=1, mode="bounded")
        chaos = StragglerInjector().add_worker_at(clean.sim_seconds * 0.3)
        trainer, result, _, _ = run_dist(
            tmp_path / "grown", workers=1, mode="bounded", bound=2, chaos=chaos,
        )
        assert len(trainer.workers) == 2
        assert trainer.workers[1].steps > 0  # the joiner pulled real work
        assert trainer.server.applied_batches.keys() >= set(range(12))
        assert result.sim_seconds < clean.sim_seconds  # extra hands helped

    def test_kill_worker_between_steps(self, tmp_path):
        trainer, _, _, _ = run_dist(tmp_path, workers=3, mode="async")
        trainer.kill_worker(2)
        assert not trainer.workers[2].alive
        assert set(trainer.server.progress.completed) == {0, 1}
        trainer.kill_worker(2)  # a second kill and an unknown id are no-ops
        trainer.kill_worker(99)
        assert [worker.alive for worker in trainer.workers.values()] == [True, True, False]

    def test_split_of_the_busiest_shard_keeps_every_embedding_bit(self, tmp_path):
        trainer, _, stack, _ = run_dist(
            tmp_path, workers=2, mode="bounded", kind="sharded",
        )
        total = CTR.num_fields * CTR.field_cardinality
        before = all_embedding_bits(stack.tables, total).copy()
        busiest = int(np.argmax(stack.store.balance()))
        new_index = stack.store.begin_split(
            busiest, lambda index: FasterKV(str(tmp_path / f"split{index}"), ssd=stack.ssd)
        ).cutover()
        assert new_index == stack.store.num_shards - 1 == 2
        np.testing.assert_array_equal(
            before, all_embedding_bits(stack.tables, total)
        )
        assert trainer.server.applied_batches.keys() >= set(range(12))

    def test_split_of_a_replicated_store_keeps_every_embedding_bit(self, tmp_path):
        _, _, stack, _ = run_dist(
            tmp_path, workers=2, mode="bounded", kind="replicated",
        )
        total = CTR.num_fields * CTR.field_cardinality
        before = all_embedding_bits(stack.tables, total).copy()
        stack.store.shards[0].fail(1)  # the copy reads the live replica
        stack.store.begin_split(
            0,
            lambda shard: ReplicaGroup(
                [FasterKV(str(tmp_path / f"split{shard}r{replica}"), ssd=stack.ssd)
                 for replica in range(2)]
            ),
        ).cutover()
        assert stack.store.num_shards == 3
        np.testing.assert_array_equal(
            before, all_embedding_bits(stack.tables, total)
        )


# ----------------------------------------------------------------------
# the injector itself
# ----------------------------------------------------------------------
class TestStragglerInjector:
    def test_slow_and_heal(self, tmp_path):
        chaos = (
            StragglerInjector()
            .slow_worker_at(0.0, 0, 10.0)
            .heal_worker_at(1e-6, 0)
        )
        trainer, _, _, _ = run_dist(tmp_path, workers=1, mode="async", chaos=chaos)
        assert chaos.pending() == 0
        assert trainer.workers[0].gpu.flops_per_second == 5e9  # healed

    def test_fire_order_and_labels(self):
        chaos = StragglerInjector()
        chaos.kill_worker_at(2.0, 0)
        chaos.slow_worker_at(1.0, 1, 2.0)
        assert chaos.peek_time() == 1.0

        class Target:
            calls: list = []

            def slow_worker(self, worker_id, factor):
                self.calls.append(("slow", worker_id, factor))

            def kill_worker(self, worker_id):
                self.calls.append(("kill", worker_id))

        target = Target()
        assert chaos.fire_due(5.0, target) == 2
        assert target.calls == [("slow", 1, 2.0), ("kill", 0)]

    def test_validation(self):
        chaos = StragglerInjector()
        with pytest.raises(ConfigError):
            chaos.slow_worker_at(-1.0, 0, 2.0)
        with pytest.raises(ConfigError):
            chaos.slow_worker_at(0.0, 0, 0.0)
        chaos.kill_replica_at(0.0, 0, 0)
        with pytest.raises(ConfigError):
            chaos.fire_due(1.0, object())  # the target has no shards


class TestDistConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DistConfig(num_workers=0)
        with pytest.raises(ConfigError):
            DistConfig(mode="gossip")
        with pytest.raises(ConfigError):
            DistConfig(staleness_bound=-1)
        with pytest.raises(ConfigError):
            DistConfig(rpc_seconds=-1.0)


# ----------------------------------------------------------------------
# scaling sanity (the figure-11 story at test scale)
# ----------------------------------------------------------------------
class TestScaling:
    def test_two_workers_beat_one_on_wall_clock(self, tmp_path):
        _, one, _, _ = run_dist(
            tmp_path / "w1", workers=1, mode="bounded", bound=2, num_batches=16,
        )
        _, two, _, _ = run_dist(
            tmp_path / "w2", workers=2, mode="bounded", bound=2, num_batches=16,
        )
        assert two.sim_seconds < one.sim_seconds
        assert len(two.losses) == len(one.losses) == 16
