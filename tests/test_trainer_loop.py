"""The shared training pipeline: BSP/SSP/ASP mechanics and accounting."""

import numpy as np
import pytest

from repro.bench import build_stack
from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.core.staleness import ASP_BOUND
from repro.data import CTRDataset
from repro.device import GPUModel, SimClock, SSDModel
from repro.errors import ConfigError
from repro.kv import ShardedKVStore
from repro.models import FFNN
from repro.train import DLRMTrainer, TrainerConfig


def make_trainer(bound=ASP_BOUND, depth=0, fields=3, cardinality=60, **cfg_kwargs):
    stack = build_stack("mlkv", dim=8, memory_budget_bytes=1 << 20,
                        staleness_bound=bound, cache_entries=512)
    dataset = CTRDataset(num_fields=fields, field_cardinality=cardinality, seed=0)
    config = TrainerConfig(batch_size=16, pipeline_depth=depth, **cfg_kwargs)
    network = FFNN(num_dense=13, num_fields=fields, emb_dim=8, hidden=(16,),
                   rng=np.random.default_rng(0))
    trainer = DLRMTrainer(stack.tables, network, stack.gpu, config, dataset)
    return stack, dataset, trainer


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainerConfig(pipeline_depth=-1)


class TestPipelineMechanics:
    def test_bsp_applies_updates_immediately(self):
        stack, dataset, trainer = make_trainer(bound=0, depth=0)
        trainer.run(dataset.batches(5, 16))
        assert len(trainer.pending) == 0
        # Every key settled: staleness 0 everywhere.
        batch = dataset.batches(1, 16)[0]
        for key in np.unique(batch.sparse):
            assert stack.store.staleness_of(int(key)) == 0
        stack.close()

    def test_pipeline_keeps_bounded_pending_queue(self):
        stack, dataset, trainer = make_trainer(bound=ASP_BOUND, depth=3)
        schedule = dataset.batches(10, 16)
        # Run manually to observe the queue depth mid-training.
        unique = [np.unique(trainer.embedding_keys(b)) for b in schedule]
        for batch, keys in zip(schedule, unique):
            trainer._train_one(batch, keys)
            assert len(trainer.pending) <= 3
        trainer.flush_pending()
        assert len(trainer.pending) == 0
        stack.close()

    def test_stall_handler_applies_pending(self):
        stack, dataset, trainer = make_trainer(bound=1, depth=8)
        result = trainer.run(dataset.batches(30, 16))
        # Hot keys recur within the window, so bound-1 training must stall.
        assert result.stall_events > 0
        stack.close()

    @pytest.mark.parametrize("shards", [0, 2], ids=["bare", "router"])
    def test_stall_events_count_every_engines_stalls(self, tmp_path, shards):
        """The trainer counts the stalls its handler sees, so a router of
        MLKV shards reports its engines' stalls summed, as one engine
        reports its own."""
        clock = SimClock()
        ssd = SSDModel(clock)

        def engine(index):
            return MLKV(str(tmp_path / f"mlkv{index}"), staleness_bound=1, ssd=ssd,
                        memory_budget_bytes=1 << 20)

        store = ShardedKVStore(engine, shards) if shards else engine(0)
        engines = list(store.shards) if shards else [store]
        dataset = CTRDataset(num_fields=3, field_cardinality=60, seed=0)
        network = FFNN(num_dense=13, num_fields=3, emb_dim=8, hidden=(16,),
                       rng=np.random.default_rng(0))
        trainer = DLRMTrainer(EmbeddingTables(store, 8, cache_entries=512), network,
                              GPUModel(clock), TrainerConfig(batch_size=16, pipeline_depth=8),
                              dataset)
        result = trainer.run(dataset.batches(30, 16))
        counted = [engine.mlkv_stats.stall_events for engine in engines]
        assert result.stall_events == sum(counted)
        assert all(count > 0 for count in counted)
        store.close()

    def test_result_accounting(self):
        stack, dataset, trainer = make_trainer()
        result = trainer.run(dataset.batches(8, 16))
        assert result.steps == 8
        assert result.samples == 8 * 16
        assert result.sim_seconds > 0
        assert result.throughput == pytest.approx(result.samples / result.sim_seconds)
        assert len(result.losses) == 8
        stack.close()

    def test_breakdown_sums_to_100(self):
        stack, dataset, trainer = make_trainer()
        result = trainer.run(dataset.batches(5, 16))
        breakdown = result.breakdown()
        assert sum(breakdown.values()) == pytest.approx(100.0)
        assert breakdown["emb_access"] > 0
        stack.close()

    def test_history_recorded_on_eval_cadence(self):
        stack, dataset, trainer = make_trainer(eval_every=2, eval_size=64)
        result = trainer.run(dataset.batches(6, 16))
        # 3 cadence points + final entry.
        assert len(result.history) >= 3
        times = [t for t, _ in result.history]
        assert times == sorted(times)
        stack.close()

    def test_eval_does_not_consume_training_time(self):
        stack, dataset, trainer = make_trainer(eval_every=1, eval_size=64)
        result_with_eval = trainer.run(dataset.batches(5, 16))
        stack2, dataset2, trainer2 = make_trainer()
        result_without = trainer2.run(dataset2.batches(5, 16))
        assert result_with_eval.sim_seconds == pytest.approx(
            result_without.sim_seconds, rel=0.01
        )
        stack.close()
        stack2.close()

    def test_loss_decreases_over_training(self):
        stack, dataset, trainer = make_trainer(emb_lr=0.1)
        result = trainer.run(dataset.batches(60, 16))
        early = float(np.mean(result.losses[:10]))
        late = float(np.mean(result.losses[-10:]))
        assert late < early
        stack.close()
