"""Sparse message passing ≡ the dense ``[n_dst, n_src]`` formulation.

The GNN layers aggregate over CSR blocks (:mod:`repro.nn.sparse`).  The
dense mask / mean-matrix form they replaced lives on in
``tests/gnn_oracle.py`` as the reference: drawn blocks must give the
same forward output and the same gradient for every parameter and input
up to summation order, and nothing on the sparse path may allocate an
array the size of the dense matrix.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnn_oracle import dense_gat, dense_sage, masked_softmax, to_dense
from repro.models.gnn import GATLayer, SageLayer
from repro.nn import Tensor
from repro.nn.sparse import Block, aggregate, edge_softmax

RELATIVE = 1e-5


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    """Within 1e-5 of the array's scale, or of the unit-scale terms it sums
    when they cancel (a row with one edge has attention 1 whatever the
    scores: the edge list's gradient is exactly 0 where the oracle keeps
    ~1e-8 of rounding)."""
    assert float(np.abs(got - want).max()) <= RELATIVE * max(float(np.abs(want).max()), 1.0)


@st.composite
def sampled_layers(draw, mean: bool = False):
    """``(block, dst_index)`` shaped like one sampled layer, with the
    corner cases always present: row 0 has only its self edge, row 1
    lists one neighbour twice, one hub column is pointed at by more rows
    than the fanout, and the last source is pointed at by nobody."""
    fanout = draw(st.integers(1, 3))
    n_dst = draw(st.integers(fanout + 3, fanout + 6))
    n_src = n_dst + draw(st.integers(2, 6))
    reachable = n_src - 1
    dst_index = np.array(draw(st.permutations(range(reachable)))[:n_dst], dtype=np.int64)
    hub = draw(st.integers(0, reachable - 1))
    rows, cols = [0], [int(dst_index[0])]
    for row in range(1, n_dst):
        picks = draw(st.lists(st.integers(0, reachable - 1), min_size=1, max_size=fanout))
        if row == 1:
            picks = [picks[0], picks[0]]
        for col in [hub] + picks:
            rows.append(row)
            cols.append(col)
    block = Block.from_edges(n_dst, n_src, np.array(rows), np.array(cols), mean=mean)
    return block, dst_index


def _layer_gradients(forward, layer, x_data, upstream):
    """Output and gradients (input first, then parameters) of one layer call."""
    layer.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    out = forward(x)
    (out * Tensor(upstream)).sum().backward()
    return out.numpy(), [x.grad] + [param.grad for param in layer.parameters()]


class TestSparseEqualsDense:
    @settings(max_examples=60, deadline=None)
    @given(sampled_layers(), st.integers(0, 2**16))
    def test_gat_layer(self, layer_input, seed):
        block, dst_index = layer_input
        rng = np.random.default_rng(seed)
        layer = GATLayer(5, 4, rng=rng)
        x_data = rng.normal(size=(block.n_src, 5)).astype(np.float32)
        upstream = rng.normal(size=(block.n_dst, 4)).astype(np.float32)
        mask = to_dense(block)
        out, grads = _layer_gradients(
            lambda x: layer(x, dst_index, block), layer, x_data, upstream)
        want, want_grads = _layer_gradients(
            lambda x: dense_gat(layer, x, dst_index, mask), layer, x_data, upstream)
        assert_close(out, want)
        assert len(grads) == 4  # input, w, a_src, a_dst
        for got_grad, want_grad in zip(grads, want_grads):
            assert_close(got_grad, want_grad)
        assert not grads[0][-1].any()  # the source nobody points at

    @settings(max_examples=60, deadline=None)
    @given(sampled_layers(mean=True), st.integers(0, 2**16))
    def test_sage_layer(self, layer_input, seed):
        block, dst_index = layer_input
        rng = np.random.default_rng(seed)
        layer = SageLayer(5, 4, rng=rng)
        x_data = rng.normal(size=(block.n_src, 5)).astype(np.float32)
        upstream = rng.normal(size=(block.n_dst, 4)).astype(np.float32)
        mean_mat = to_dense(block)
        np.testing.assert_allclose(mean_mat.sum(axis=1), 1.0, atol=1e-6)
        out, grads = _layer_gradients(
            lambda x: layer(x, dst_index, block), layer, x_data, upstream)
        want, want_grads = _layer_gradients(
            lambda x: dense_sage(layer, x, dst_index, mean_mat), layer, x_data, upstream)
        assert_close(out, want)
        assert len(grads) == 4  # input, w_self weight + bias, w_neigh weight
        for got_grad, want_grad in zip(grads, want_grads):
            assert_close(got_grad, want_grad)
        assert not grads[0][-1].any()  # the source nobody points at

    @settings(max_examples=60, deadline=None)
    @given(sampled_layers(), st.integers(0, 2**16))
    def test_edge_softmax_with_logits_wider_than_the_clip(self, layer_input, seed):
        block, _ = layer_input
        rng = np.random.default_rng(seed)
        edge_values = rng.normal(size=len(block.indices)).astype(np.float32)
        edge_values[block.starts] += 200.0        # one edge far above the rest of its row,
        edge_values[block.rows % 2 == 1] += 300.0  # and odd rows above the clip as a whole
        upstream = rng.normal(size=len(block.indices)).astype(np.float32)
        logits = Tensor(edge_values, requires_grad=True)
        probs = edge_softmax(block, logits)
        (probs * Tensor(upstream)).sum().backward()

        mask = to_dense(block)
        dense_values = np.zeros(mask.shape, dtype=np.float32)
        dense_values[block.rows, block.indices] = edge_values
        dense_upstream = np.zeros(mask.shape, dtype=np.float32)
        dense_upstream[block.rows, block.indices] = upstream
        dense_logits = Tensor(dense_values, requires_grad=True)
        dense_probs = masked_softmax(dense_logits, mask, axis=1)
        (dense_probs * Tensor(dense_upstream)).sum().backward()
        assert_close(probs.numpy(), dense_probs.numpy()[block.rows, block.indices])
        assert_close(logits.grad, dense_logits.grad[block.rows, block.indices])

    @settings(max_examples=60, deadline=None)
    @given(sampled_layers(), st.integers(0, 2**16))
    def test_aggregate_with_explicit_weights(self, layer_input, seed):
        drawn, _ = layer_input
        rng = np.random.default_rng(seed)
        block = Block(drawn.n_src, drawn.indptr, drawn.indices,
                      weights=rng.normal(size=len(drawn.indices)).astype(np.float32))
        x_data = rng.normal(size=(block.n_src, 3)).astype(np.float32)
        x, dense_x = Tensor(x_data, requires_grad=True), Tensor(x_data, requires_grad=True)
        out = aggregate(block, block.weights, x)
        want = Tensor(to_dense(block)) @ dense_x
        (out ** 2.0).sum().backward()
        (want ** 2.0).sum().backward()
        assert_close(out.numpy(), want.numpy())
        assert_close(x.grad, dense_x.grad)


class TestBlock:
    def test_from_dense_mask(self):
        mask = np.array([[True, False, True, False],
                         [False, True, False, False]])
        block = Block.from_dense(mask)
        assert (block.n_dst, block.n_src) == (2, 4)
        np.testing.assert_array_equal(block.indptr, [0, 2, 3])
        np.testing.assert_array_equal(block.indices, [0, 2, 1])
        np.testing.assert_array_equal(block.rows, [0, 0, 1])
        assert block.weights is None
        np.testing.assert_array_equal(to_dense(block), mask)

    def test_from_dense_weights_round_trip(self):
        matrix = np.array([[0.25, 0.0, 0.75], [0.0, 1.0, 0.0]], dtype=np.float32)
        block = Block.from_dense(matrix)
        np.testing.assert_array_equal(block.weights, [0.25, 0.75, 1.0])
        np.testing.assert_array_equal(to_dense(block), matrix)

    def test_repeated_edge_counts_once(self):
        block = Block.from_edges(2, 3, np.array([1, 0, 1, 1]), np.array([2, 1, 2, 0]), mean=True)
        np.testing.assert_array_equal(block.indptr, [0, 1, 3])
        np.testing.assert_array_equal(block.indices, [1, 0, 2])
        np.testing.assert_array_equal(block.weights, [1.0, 0.5, 0.5])

    def test_rank_groups_name_no_target_twice(self):
        rng = np.random.default_rng(0)
        block = Block.from_dense((rng.random((30, 12)) < 0.3) | np.eye(30, 12, dtype=bool))
        for groups in (block.by_row, block.by_col):
            assert sorted(groups.order.tolist()) == list(range(len(block.indices)))
            for lo, hi in zip(groups.bounds, groups.bounds[1:]):
                assert len(np.unique(groups.into[lo:hi])) == hi - lo
        np.testing.assert_array_equal(block.by_col.into, block.indices[block.by_col.order])
        np.testing.assert_array_equal(block.by_col.take, block.rows[block.by_col.order])

    def test_row_without_an_edge_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            Block.from_dense(np.array([[True, False], [False, False]]))

    def test_edge_outside_the_frontier_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Block(2, np.array([0, 1]), np.array([2]))


def test_no_dense_array_on_the_sparse_path():
    """One GAT forward/backward over 4,000 x 20,000 nodes stays under
    64 MB; a dense float32 mask of that block alone is 320 MB."""
    n_dst, n_src, fanout = 4_000, 20_000, 5
    rng = np.random.default_rng(0)
    rows = np.repeat(np.arange(n_dst), fanout)
    block = Block.from_edges(n_dst, n_src, rows, rng.integers(0, n_src, len(rows)))
    layer = GATLayer(32, 64, rng=rng)
    x_src = Tensor(rng.normal(size=(n_src, 32)), requires_grad=True)
    tracemalloc.start()
    try:
        layer(x_src, np.arange(n_dst), block).sum().backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x_src.grad is not None and x_src.grad.shape == (n_src, 32)
    assert peak < 64 << 20
