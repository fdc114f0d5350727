"""Neighbor/negative samplers and evaluation metrics."""

import zlib

import numpy as np
import pytest

from repro.data import GraphDataset, NegativeSampler, NeighborSampler
from repro.train import accuracy, auc, hits_at_k


@pytest.fixture(scope="module")
def graph():
    return GraphDataset(num_nodes=400, num_classes=4, seed=1)


@pytest.fixture(scope="module")
def sparse_graph():
    """Sparse enough for isolated nodes (self-edge fallback) and
    multi-edges (one neighbor offered, and picked, twice for a row)."""
    return GraphDataset(num_nodes=600, avg_degree=3, num_classes=4, seed=5)


# CRC-32 of input_nodes, frontiers and every block's indptr / indices /
# weights, per batch, captured from the dense-matrix sampler (commit
# b569f31) on ``sparse_graph``: {(mode, sampler seed): three batches}.
SAMPLER_PINS = {
    ("mean", 0): [3237052944, 4262392042, 548168084],
    ("mean", 1): [563931516, 1686627522, 4070517979],
    ("mask", 0): [1109182028, 1377726932, 58374746],
    ("mask", 1): [466096803, 313503153, 1701507703],
}


def _sample_crc(sampled) -> int:
    crc = zlib.crc32(sampled.input_nodes.astype(np.int64).tobytes())
    for dst_index, block in zip(sampled.frontiers, sampled.blocks):
        crc = zlib.crc32(dst_index.astype(np.int64).tobytes(), crc)
        crc = zlib.crc32(block.indptr.astype(np.int64).tobytes(), crc)
        crc = zlib.crc32(block.indices.astype(np.int64).tobytes(), crc)
        if block.weights is not None:
            crc = zlib.crc32(block.weights.astype(np.float32).tobytes(), crc)
    return crc


class TestNeighborSampler:
    def test_block_structure(self, graph):
        sampler = NeighborSampler(graph, fanouts=(3, 3), mode="mean", seed=0)
        seeds = graph.train_nodes[:8]
        blocks = sampler.sample(seeds)
        assert len(blocks.frontiers) == 2
        assert len(blocks.blocks) == 2
        np.testing.assert_array_equal(blocks.seeds, seeds)
        # Innermost frontier classifies exactly the seeds.
        assert blocks.blocks[-1].n_dst == len(seeds)

    def test_mean_matrices_row_normalized(self, graph):
        sampler = NeighborSampler(graph, fanouts=(3, 3), mode="mean", seed=0)
        blocks = sampler.sample(graph.train_nodes[:8])
        for block in blocks.blocks:
            row_sums = np.bincount(block.rows, weights=block.weights, minlength=block.n_dst)
            np.testing.assert_allclose(row_sums, 1.0, atol=1e-5)

    def test_mask_mode_boolean(self, graph):
        sampler = NeighborSampler(graph, fanouts=(3, 3), mode="mask", seed=0)
        blocks = sampler.sample(graph.train_nodes[:8])
        for block in blocks.blocks:
            assert block.weights is None  # attention supplies the weights
            assert (np.diff(block.indptr) >= 1).all()  # every dst has ≥1 source

    def test_frontier_indices_valid(self, graph):
        sampler = NeighborSampler(graph, fanouts=(4, 4), mode="mean", seed=0)
        blocks = sampler.sample(graph.train_nodes[:6])
        sizes = [len(blocks.input_nodes)]
        for dst_index, block in zip(blocks.frontiers, blocks.blocks):
            assert dst_index.max() < sizes[-1]
            assert (block.n_dst, block.n_src) == (len(dst_index), sizes[-1])
            assert block.indptr[0] == 0 and block.indptr[-1] == len(block.indices)
            assert block.indices.min() >= 0 and block.indices.max() < block.n_src
            sizes.append(len(dst_index))
        assert sizes[-1] == 6

    def test_fanout_limits_edges(self, graph):
        sampler = NeighborSampler(graph, fanouts=(2,), mode="mean", seed=0)
        blocks = sampler.sample(graph.train_nodes[:10])
        edges_per_dst = np.diff(blocks.blocks[0].indptr)
        assert (edges_per_dst <= 2 + 1).all()  # +1 self fallback

    def test_invalid_mode(self, graph):
        with pytest.raises(ValueError):
            NeighborSampler(graph, mode="sum")

    def test_edges_are_sampled_neighbors_once_each(self, sparse_graph):
        sampler = NeighborSampler(sparse_graph, fanouts=(5,), mode="mean", seed=0)
        seeds = sparse_graph.train_nodes[:200]
        sampled = sampler.sample(seeds)
        block, = sampled.blocks
        isolated = repeated_offers = 0
        for row, node in enumerate(seeds.tolist()):
            edges = block.indices[block.indptr[row]:block.indptr[row + 1]]
            picked = sampled.input_nodes[edges].tolist()
            offered = sparse_graph.neighbors(node).tolist()
            assert len(set(picked)) == len(picked)
            if not offered:
                assert picked == [node]  # self-edge fallback
                isolated += 1
            elif len(set(offered)) == len(offered):
                assert set(picked) <= set(offered) and len(picked) == min(5, len(offered))
            else:
                assert set(picked) <= set(offered) and len(picked) <= min(5, len(offered))
                repeated_offers += 1
        assert isolated > 0 and repeated_offers > 0

    @pytest.mark.parametrize("mode,seed", sorted(SAMPLER_PINS))
    def test_same_sampled_graph_as_the_dense_sampler(self, sparse_graph, mode, seed):
        """The RNG stream, the frontier order (destinations first, then new
        neighbors as first seen) and the per-row neighbor sets are pinned."""
        sampler = NeighborSampler(sparse_graph, fanouts=(5, 5), mode=mode, seed=seed)
        crcs = [_sample_crc(sampler.sample(seeds))
                for seeds in sparse_graph.seed_batches(3, 32, seed=seed + 1)]
        assert crcs == SAMPLER_PINS[(mode, seed)]


class TestNegativeSampler:
    def test_shape_and_range(self):
        sampler = NegativeSampler(num_entities=50, negatives=7, seed=0)
        negs = sampler.sample(16)
        assert negs.shape == (16, 7)
        assert negs.min() >= 0 and negs.max() < 50

    def test_invalid_entities(self):
        with pytest.raises(ValueError):
            NegativeSampler(num_entities=1)


class TestAUC:
    def test_perfect_separation(self):
        assert auc(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_inverted_is_zero(self):
        assert auc(np.array([1, 1, 0, 0]), np.array([0.1, 0.2, 0.8, 0.9])) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 10_000)
        scores = rng.random(10_000)
        assert auc(labels, scores) == pytest.approx(0.5, abs=0.02)

    def test_ties_use_midranks(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert auc(labels, scores) == pytest.approx(0.5)

    def test_degenerate_labels_return_half(self):
        assert auc(np.ones(5), np.random.default_rng(0).random(5)) == 0.5

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 200)
        scores = rng.random(200)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        pairwise = np.mean([
            1.0 if p > n else 0.5 if p == n else 0.0
            for p in pos for n in neg
        ])
        assert auc(labels, scores) == pytest.approx(pairwise, abs=1e-9)

    def test_partial_ties_exact_midrank_value(self):
        # scores: neg 0.3, {pos 0.5, neg 0.5} tied, pos 0.9.
        # Pairs: (p=.5,n=.3)→1, (p=.5,n=.5)→0.5, (p=.9,n=.3)→1,
        # (p=.9,n=.5)→1  ⇒ AUC = 3.5/4 = 0.875 exactly.
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.3, 0.5, 0.5, 0.9])
        assert auc(labels, scores) == pytest.approx(0.875, abs=1e-12)

    def test_tie_run_spanning_many_records(self):
        # 3 positives and 3 negatives all tied: every pair scores 0.5.
        labels = np.array([1, 1, 1, 0, 0, 0])
        scores = np.full(6, 0.42)
        assert auc(labels, scores) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_all_negative_labels_return_half(self):
        assert auc(np.zeros(5), np.random.default_rng(0).random(5)) == 0.5

    def test_degenerate_empty_inputs_return_half(self):
        assert auc(np.array([]), np.array([])) == 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            auc(np.zeros(3), np.zeros(4))

    def test_multidim_inputs_flatten_before_shape_check(self):
        labels = np.array([[0, 1], [0, 1]])
        scores = np.array([0.1, 0.8, 0.2, 0.9])
        assert auc(labels, scores) == 1.0
        with pytest.raises(ValueError):
            auc(labels, np.zeros((3, 2)))


class TestAccuracyAndHits:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1, 2, 3]), np.array([1, 2]))

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_hits_at_k_boundaries(self):
        pos = np.array([5.0, 0.0])
        candidates = np.array([
            [1.0, 2.0, 3.0],   # 0 higher → rank 0 → hit
            [1.0, 2.0, 3.0],   # 3 higher → rank 3 → miss for k=3? higher<3 false
        ])
        assert hits_at_k(pos, candidates, k=3) == pytest.approx(0.5)
        assert hits_at_k(pos, candidates, k=4) == pytest.approx(1.0)

    def test_hits_optimistic_on_ties(self):
        pos = np.array([1.0])
        candidates = np.array([[1.0, 1.0, 1.0]])
        assert hits_at_k(pos, candidates, k=1) == 1.0

    def test_hits_shape_validation(self):
        with pytest.raises(ValueError):
            hits_at_k(np.zeros(3), np.zeros((4, 2)))
