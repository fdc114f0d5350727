"""Neighbor/negative samplers and evaluation metrics."""

import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from gnn_oracle import choice_loop_layer
from repro.data import GraphDataset, NeighborSampler
from repro.data.sampling import _choice_positions, _lemire_draws
from repro.nn.sparse import Block
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


def _csr(degrees, seed=0):
    """A multigraph whose first nodes have the given out-degrees and pick
    neighbours among 20× as many nodes (the rest isolated), so the order
    of each row's picks decides the source frontier's order."""
    num_nodes = 20 * len(degrees)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    indptr[1:len(degrees) + 1] = np.cumsum(degrees)
    indptr[len(degrees) + 1:] = indptr[len(degrees)]
    indices = np.random.default_rng(seed).integers(0, num_nodes, indptr[-1])
    return SimpleNamespace(indptr=indptr, indices=indices)


def _loop_layer(graph, rng, dst, fanout, mean):
    """The sampler's layer written as one ``rng.choice`` per destination:
    the reference the array path must equal, draw for draw."""
    src, dst_index, rows, cols = choice_loop_layer(graph, rng, dst, fanout)
    return src, dst_index, Block.from_edges(len(dst), len(src), rows, cols, mean=mean)


def _assert_same_layer(got, want):
    for a, b in zip(got[:2], want[:2]):
        np.testing.assert_array_equal(a, b)
    got_block, want_block = got[2], want[2]
    np.testing.assert_array_equal(got_block.indptr, want_block.indptr)
    np.testing.assert_array_equal(got_block.indices, want_block.indices)
    if want_block.weights is None:
        assert got_block.weights is None
    else:
        np.testing.assert_array_equal(got_block.weights, want_block.weights)


def _layer_pair(graph, fanout, seed, mode="mean", entry=None):
    """A sampler and a generator in the same state: ``entry(rng)`` runs on
    both before the layer."""
    sampler = NeighborSampler(graph, fanouts=(fanout,), mode=mode, seed=seed)
    rng = np.random.default_rng(seed)
    if entry is not None:
        entry(sampler._rng)
        entry(rng)
    return sampler, rng


def _buffer_a_half_word(rng):
    rng.choice(2, size=1, replace=False)  # one next_uint32 word: buffers a half
    assert rng.bit_generator.state["has_uint32"] == 1


class TestExactChoiceStream:
    """The array-shaped layer reproduces numpy's ``Generator.choice(replace=False)``
    stream exactly: same picks, same generator state afterwards.  A numpy
    release that changes ``choice`` fails here instead of silently changing
    every sampled graph."""

    @pytest.mark.parametrize("buffered", [False, True], ids=["no-buffer", "buffered"])
    @pytest.mark.parametrize("fanout", range(1, 11))
    def test_layer_equals_the_choice_loop(self, fanout, buffered):
        entry = _buffer_a_half_word if buffered else None
        for layer in range(4):
            seed = 100 * fanout + layer
            draw = np.random.default_rng(seed + 7)
            degrees = draw.integers(1, 601, 48)
            degrees[:16] = draw.integers(1, fanout + 2, 16)  # k == deg, deg == 1
            degrees[16] = 1
            degrees[17] = 0  # isolated: self edge, no draw
            graph = _csr(degrees, seed)
            dst = draw.permutation(len(degrees))
            sampler, rng = _layer_pair(graph, fanout, seed, entry=entry)

            probe = np.random.default_rng(seed)
            if entry is not None:
                entry(probe)
            assert _choice_positions(probe.bit_generator, degrees[dst], fanout) is not None

            got = sampler._sample_layer(dst, fanout)
            _assert_same_layer(got, _loop_layer(graph, rng, dst, fanout, mean=True))
            assert sampler._rng.bit_generator.state == rng.bit_generator.state
            assert probe.bit_generator.state == rng.bit_generator.state
            np.testing.assert_array_equal(sampler._rng.choice(1000, 7, replace=False),
                                          rng.choice(1000, 7, replace=False))
            assert sampler._rng.random() == rng.random()

    def test_degree_over_ten_thousand_takes_the_loop(self):
        degrees = np.array([3, 12_000, 0, 7, 1])
        graph = _csr(degrees, seed=1)
        dst = np.arange(len(degrees))
        sampler, rng = _layer_pair(graph, 5, seed=2, mode="mask")
        before = sampler._rng.bit_generator.state
        assert _choice_positions(sampler._rng.bit_generator, degrees, 5) is None
        assert sampler._rng.bit_generator.state == before
        _assert_same_layer(sampler._sample_layer(dst, 5),
                           _loop_layer(graph, rng, dst, 5, mean=False))
        assert sampler._rng.bit_generator.state == rng.bit_generator.state

    def test_lemire_helper_flags_a_rejected_word(self):
        # Bound 2: threshold (2**32 - 1 - 2) % 3 == 1, so word 0 (leftover 0)
        # is rejected; word 1 gives (1 * 3) >> 32 == 0.
        assert _lemire_draws(np.array([0], dtype=np.uint64), np.array([2])) is None
        assert _lemire_draws(np.array([1, 0], dtype=np.uint64), np.array([2, 2])) is None
        words = np.array([1, 2**31, 2**32 - 1, 0], dtype=np.uint64)
        bounds = np.array([2, 2, 9, 7])  # bound 7: span 8 divides 2**32, no threshold
        np.testing.assert_array_equal(_lemire_draws(words, bounds),
                                      (words * (bounds.astype(np.uint64) + 1)) >> 32)

    def test_rejected_word_restores_state_and_takes_the_loop(self):
        def crafted(rng):  # the next word is 0: rejected by a draw in [0, 2]
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            rng.bit_generator.state = state

        # numpy itself spends a second word on it: Floyd's one draw in [0, 2].
        rng = np.random.default_rng(0)
        crafted(rng)
        rng.choice(3, size=1, replace=False)
        assert rng.bit_generator.state["has_uint32"] == 1

        fanout = 4
        degrees = np.array([fanout + 2, 9, 1, 30])  # first draw: j = deg - k = 2
        graph = _csr(degrees, seed=3)
        dst = np.arange(len(degrees))
        sampler, rng = _layer_pair(graph, fanout, seed=4, entry=crafted)
        saved = sampler._rng.bit_generator.state
        assert _choice_positions(sampler._rng.bit_generator, degrees, fanout) is None
        assert sampler._rng.bit_generator.state == saved
        _assert_same_layer(sampler._sample_layer(dst, fanout),
                           _loop_layer(graph, rng, dst, fanout, mean=True))
        assert sampler._rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("buffered", [False, True], ids=["no-buffer", "buffered"])
    def test_empty_or_isolated_layer_draws_no_word(self, buffered):
        entry = _buffer_a_half_word if buffered else None
        graph = _csr(np.array([0, 0, 0, 2]), seed=5)
        sampler, rng = _layer_pair(graph, 3, seed=6, entry=entry)
        before = sampler._rng.bit_generator.state
        empty = _choice_positions(sampler._rng.bit_generator, np.zeros(0, dtype=np.int64), 3)
        assert len(empty) == 0 and sampler._rng.bit_generator.state == before
        dst = np.array([2, 0, 1])
        src, dst_index, block = sampler._sample_layer(dst, 3)
        assert sampler._rng.bit_generator.state == before
        np.testing.assert_array_equal(src, dst)
        np.testing.assert_array_equal(block.indices, dst_index)
        _assert_same_layer((src, dst_index, block), _loop_layer(graph, rng, dst, 3, mean=True))


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
