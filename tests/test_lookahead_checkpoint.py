"""LookaheadEngine windows and cloud checkpointing."""

import os

import numpy as np
import pytest

from repro.core import CloudCheckpointer, EmbeddingTables, LookaheadEngine, MLKV
from repro.core.staleness import ASP_BOUND
from repro.errors import CheckpointError
from repro.kv.faster import FasterKV


@pytest.fixture
def tables(tmp_path):
    store = MLKV(str(tmp_path / "s"), staleness_bound=ASP_BOUND,
                 memory_budget_bytes=1 << 18, page_bytes=1 << 12)
    tables = EmbeddingTables(store, dim=4, cache_entries=256)
    # Materialize keys 0..199.
    tables.put(np.arange(200), np.zeros((200, 4), dtype=np.float32))
    yield tables
    store.close()


class TestLookaheadEngine:
    def _schedule(self, n=10, width=8):
        return [np.arange(i * width, (i + 1) * width) for i in range(n)]

    def test_cache_window_prefetches_ahead(self, tables):
        engine = LookaheadEngine(tables, self._schedule(), distance=0, conventional_window=2)
        counters = engine.advance(0)
        assert counters["cache"] == 16  # batches 1 and 2
        for key in range(8, 24):
            assert key in tables.cache

    def test_cursor_never_refetches(self, tables):
        engine = LookaheadEngine(tables, self._schedule(), conventional_window=2)
        engine.advance(0)
        assert engine.advance(1)["cache"] == 8  # only batch 3 is new

    def test_window_clamps_at_schedule_end(self, tables):
        engine = LookaheadEngine(tables, self._schedule(3), conventional_window=10)
        counters = engine.advance(0)
        assert counters["cache"] == 16  # only batches 1, 2 exist

    def test_buffer_window_independent(self, tables):
        engine = LookaheadEngine(tables, self._schedule(), distance=5, conventional_window=1)
        counters = engine.advance(0)
        assert counters["cache"] == 8
        # Buffer staging counts only disk-resident records (may be zero here).
        assert counters["buffer"] >= 0

    def test_zero_windows_noop(self, tables):
        engine = LookaheadEngine(tables, self._schedule())
        assert engine.advance(0) == {"buffer": 0, "cache": 0}

    def test_negative_windows_rejected(self, tables):
        with pytest.raises(ValueError):
            LookaheadEngine(tables, [], distance=-1)


class TestCloudCheckpointer:
    def test_checkpoint_uploads_objects(self, tmp_path):
        store = FasterKV(str(tmp_path / "local"))
        store.put(1, b"payload")
        cloud = str(tmp_path / "bucket")
        checkpointer = CloudCheckpointer(store, cloud)
        checkpointer.checkpoint()
        assert checkpointer.uploads == 1
        assert os.listdir(cloud)
        assert store.clock.busy_seconds("network") > 0
        store.close()

    def test_restore_roundtrip(self, tmp_path):
        store = FasterKV(str(tmp_path / "local"))
        for i in range(50):
            store.put(i, bytes([i]) * 8)
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        checkpointer.checkpoint()
        store.close()

        restore_dir = str(tmp_path / "restored")
        checkpointer.restore_to(restore_dir)
        recovered = FasterKV.recover(restore_dir)
        assert recovered.get(42) == bytes([42]) * 8
        recovered.close()

    def test_cadence(self, tmp_path):
        store = FasterKV(str(tmp_path / "local"))
        store.put(1, b"x")
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"), every_n_steps=10)
        assert not checkpointer.maybe_checkpoint(0)
        assert not checkpointer.maybe_checkpoint(5)
        assert checkpointer.maybe_checkpoint(10)
        assert checkpointer.uploads == 1
        store.close()

    def test_restore_requires_objects(self, tmp_path):
        store = FasterKV(str(tmp_path / "local"))
        checkpointer = CloudCheckpointer(store, str(tmp_path / "empty"))
        with pytest.raises(CheckpointError):
            checkpointer.restore_to(str(tmp_path / "out"))
        store.close()

    def test_invalid_bandwidth(self, tmp_path):
        store = FasterKV(str(tmp_path / "local"))
        with pytest.raises(CheckpointError):
            CloudCheckpointer(store, str(tmp_path / "b"), upload_bandwidth=0)
        store.close()


class TestClampedWindowAcrossAResume:
    """A run killed at a checkpoint and resumed on a restored store keeps
    the clamped look-ahead window: the resumed engine stages one window
    after the resume point, as wide as the clamp lets it be, and then one
    batch a step exactly as the uninterrupted run does."""

    STEPS, KILL_AT, DIM = 16, 8, 8

    def _trainer(self, store, clock):
        from repro.data import CTRDataset
        from repro.device import GPUModel
        from repro.models import FFNN
        from repro.train import DLRMTrainer, TrainerConfig

        tables = EmbeddingTables(store, dim=self.DIM, seed=0, cache_entries=0)
        calls = []
        stage = tables.lookahead

        def recorded(keys, dest="buffer"):
            calls.append(np.asarray(keys).tolist())
            return stage(keys, dest=dest)

        tables.lookahead = recorded
        dataset = CTRDataset(num_fields=4, field_cardinality=400, seed=0)
        config = TrainerConfig(batch_size=64, pipeline_depth=2, lookahead_distance=8, seed=0)
        network = FFNN(num_dense=13, num_fields=4, emb_dim=self.DIM, hidden=(16,),
                       rng=np.random.default_rng(0))
        trainer = DLRMTrainer(tables, network, GPUModel(clock, flops_per_second=5e12),
                              config, dataset)
        return trainer, dataset.batches(self.STEPS, 64), calls

    def _store(self, path):
        from repro.device import SimClock, SSDModel

        clock = SimClock()
        return MLKV(path, staleness_bound=ASP_BOUND, ssd=SSDModel(clock),
                    memory_budget_bytes=1 << 15, page_bytes=1 << 12), clock

    def test_resume_stages_the_clamped_window(self, tmp_path):
        store, clock = self._store(str(tmp_path / "full"))
        trainer, batches, full_calls = self._trainer(store, clock)
        full = trainer.run(batches)
        # Eight 4 KiB pages are sure to hold 7 x 77 = 539 53-byte records:
        # three batches of at most 165 keys, less the pipeline's two — one
        # batch a call, for a distance of 8.
        largest = max(len(np.unique(trainer.embedding_keys(batch))) for batch in batches)
        assert (store.lookahead_capacity(1 + 4 * self.DIM), largest) == (539, 165)
        assert len(full_calls) == self.STEPS - 1
        assert store.mlkv_stats.lookahead_copied > 0
        assert store.mlkv_stats.lookahead_evicted_unread == 0
        store.close()

        store, clock = self._store(str(tmp_path / "killed"))
        trainer, batches, _ = self._trainer(store, clock)
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        trainer.run(batches[: self.KILL_AT], checkpointer=checkpointer,
                    checkpoint_every=self.KILL_AT)

        restored_dir = str(tmp_path / "resumed")
        restored = checkpointer.restore(restored_dir, staleness_bound=ASP_BOUND,
                                        memory_budget_bytes=1 << 15, page_bytes=1 << 12)
        trainer, batches, resumed_calls = self._trainer(restored, restored.clock)
        trainer.load_checkpoint(restored_dir)
        resumed = trainer.run(batches)
        assert resumed.losses == full.losses[self.KILL_AT :]
        assert resumed_calls == full_calls[self.KILL_AT :]
        assert restored.mlkv_stats.lookahead_evicted_unread == 0
        store.close()
        restored.close()
