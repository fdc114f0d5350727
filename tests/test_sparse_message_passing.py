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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnn_oracle import dense_gat, dense_sage, from_dense, masked_softmax, to_dense
from repro.data import GraphDataset, NeighborSampler
from repro.models.gnn import GATLayer, SageLayer
from repro.nn import Tensor
from repro.nn.sparse import Block, aggregate, edge_logits, edge_softmax

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


@pytest.fixture(scope="module")
def sampled_batch():
    graph = GraphDataset(num_nodes=20_000, seed=0)
    sampler = NeighborSampler(graph, (5, 5), mode="mask")
    return sampler.sample(graph.seed_batches(1, 64)[0])


class TestSparseEqualsDense:
    @settings(max_examples=60, deadline=None)
    @given(sampled_layers(), st.integers(0, 2**16))
    # Two float32 evaluations of this case part on ``a_src``'s gradient by
    # 1.17e-5 (|h_src| reaches 6): the float64 reference keeps it in.
    @example((Block(10, np.array([0, 1, 3, 6, 8, 10, 12]),
                    np.array([0, 0, 8, 0, 7, 8, 0, 8, 0, 8, 0, 8])),
              np.array([0, 1, 2, 3, 5, 4])), 632)
    def test_gat_layer(self, layer_input, seed):
        block, dst_index = layer_input
        rng = np.random.default_rng(seed)
        layer = GATLayer(5, 4, rng=rng)
        x_data = rng.normal(size=(block.n_src, 5)).astype(np.float32)
        upstream = rng.normal(size=(block.n_dst, 4)).astype(np.float32)
        out, grads = _layer_gradients(
            lambda x: layer(x, dst_index, block), layer, x_data, upstream)
        want, want_grads = dense_gat(layer, x_data, dst_index, to_dense(block), upstream)
        assert_close(out, want)
        assert len(grads) == 4  # input, w, a_src, a_dst
        for got_grad, want_grad in zip(grads, want_grads):
            assert_close(got_grad, want_grad)
        assert not grads[0][-1].any()  # the source nobody points at

    @pytest.mark.parametrize("layer_index, in_dim", [(0, 32), (1, 256)])
    def test_gat_layer_at_the_workload_shapes(self, sampled_batch, layer_index, in_dim):
        """The e2e benchmark's GAT (32 → 256 → 256, fanouts (5, 5), 64
        seeds over 20,000 nodes) on one real sampled batch: ~1,600 sources
        into ~360 destinations, then ~360 into 64."""
        block, dst_index = sampled_batch.blocks[layer_index], sampled_batch.frontiers[layer_index]
        rng = np.random.default_rng(layer_index)
        layer = GATLayer(in_dim, 256, rng=rng)
        x_data = rng.normal(size=(block.n_src, in_dim)).astype(np.float32)
        upstream = rng.normal(size=(block.n_dst, 256)).astype(np.float32)
        out, grads = _layer_gradients(
            lambda x: layer(x, dst_index, block), layer, x_data, upstream)
        want, want_grads = dense_gat(layer, x_data, dst_index, to_dense(block), upstream)
        assert_close(out, want)
        assert len(grads) == 4  # input, w, a_src, a_dst
        for got_grad, want_grad in zip(grads, want_grads):
            assert_close(got_grad, want_grad)

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


def _product(h: Tensor, a: Tensor) -> Tensor:
    """``h @ a`` as its own node, with ``np.matmul`` both ways."""

    def backward(grad: np.ndarray) -> None:
        h._accumulate(grad @ a.data.T, owned=True)
        a._accumulate(h.data.T @ grad, owned=True)

    return Tensor._make(h.data @ a.data, (h, a), backward)


def four_node_logits(block, h_src, a_src, a_dst, dst_index):
    """GAT's edge scores composed of four nodes: two products, the pick and the sum."""
    e_src = _product(h_src, a_src)
    e_dst = _product(h_src, a_dst)[dst_index]

    def backward(grad: np.ndarray) -> None:
        e_dst._accumulate(np.add.reduceat(grad, block.starts).reshape(e_dst.shape))
        per_src = np.bincount(block.indices, weights=grad, minlength=block.n_src)
        e_src._accumulate(per_src.astype(np.float32).reshape(e_src.shape))

    out = e_dst.data.reshape(-1)[block.rows] + e_src.data.reshape(-1)[block.indices]
    return Tensor._make(out, (e_dst, e_src), backward)


def _signed_zeros(rng, shape, share):
    """Normal draws with ``share`` of the entries 0.0 and as many -0.0."""
    values = rng.normal(size=shape).astype(np.float32)
    draw = rng.random(shape)
    values[draw < share] = 0.0
    values[draw > 1 - share] = -0.0
    return values


def _attention_pass(logits_fn, block, dst_index, arrays, through_aggregate):
    """Scores, output and the three gradients of one GAT attention pass."""
    h_data, a_src_data, a_dst_data, upstream, preset = arrays
    h_src = Tensor(h_data, requires_grad=True)
    a_src = Tensor(a_src_data, requires_grad=True)
    a_dst = Tensor(a_dst_data, requires_grad=True)
    if preset is not None:
        h_src.grad = preset.copy()  # as if h_src fed another node first
    logits = logits_fn(block, h_src, a_src, a_dst, dst_index)
    attention = edge_softmax(block, logits.leaky_relu(0.2))
    if through_aggregate:
        out = aggregate(block, attention, h_src)
    else:
        out = attention
    (out * Tensor(upstream[: out.data.size].reshape(out.shape))).sum().backward()
    return [logits.data, out.data, h_src.grad, a_src.grad, a_dst.grad]


def _assert_same_bits(got: list, want: list) -> None:
    for name, g, w in zip(["logits", "out", "h_src", "a_src", "a_dst"], got, want):
        assert g.shape == w.shape, name
        assert np.array_equal(g.view(np.uint32), w.view(np.uint32)), name


class TestFusedEdgeLogits:
    """``edge_logits`` is one node with the bits of the four it stands for:
    the forward scores and every gradient, signs of zero included."""

    @settings(max_examples=80, deadline=None)
    @given(sampled_layers(), st.integers(0, 2**16), st.booleans(), st.booleans())
    def test_equals_the_four_node_composition(self, layer_input, seed, through_aggregate,
                                              zeros_in_a):
        # Row 0 is an isolated node's self edge: its softmax gradient is
        # exactly 0, so its source's g_src is too; the last source has none.
        block, dst_index = layer_input
        rng = np.random.default_rng(seed)
        width = 4
        arrays = [
            _signed_zeros(rng, (block.n_src, width), 0.1),
            _signed_zeros(rng, (width, 1), 0.25 if zeros_in_a else 0.0),
            _signed_zeros(rng, (width, 1), 0.25 if zeros_in_a else 0.0),
            _signed_zeros(rng, (max(block.n_dst * width, len(block.indices)),), 0.3),
            _signed_zeros(rng, (block.n_src, width), 0.4),  # h_src.grad holding -0.0
        ]
        got = _attention_pass(edge_logits, block, dst_index, arrays, through_aggregate)
        want = _attention_pass(four_node_logits, block, dst_index, arrays, through_aggregate)
        _assert_same_bits(got, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_edge_rows_and_an_unscored_source(self, seed):
        """Rows 0 and 2 have one edge each (row 0 its self edge), so their
        softmax gradients are exactly 0; source 5 is nobody's neighbour and
        no destination, and h_src's gradient arrives with -0.0 in it (or
        starts with this node)."""
        rows = np.array([0, 1, 1, 2, 3, 3, 3])
        cols = np.array([1, 0, 2, 4, 1, 3, 0])
        block = Block.from_edges(4, 6, rows, cols)
        dst_index = np.array([1, 2, 0, 3])
        rng = np.random.default_rng(seed)
        inputs = [
            _signed_zeros(rng, (6, 3), 0.2),
            _signed_zeros(rng, (3, 1), 0.2),
            _signed_zeros(rng, (3, 1), 0.2),
            _signed_zeros(rng, (12,), 0.3),
        ]
        negative_zeros = np.full((6, 3), -0.0, dtype=np.float32)
        for through_aggregate, preset in [(False, negative_zeros), (True, negative_zeros),
                                          (False, None)]:
            arrays = inputs + [preset]
            got = _attention_pass(edge_logits, block, dst_index, arrays, through_aggregate)
            want = _attention_pass(four_node_logits, block, dst_index, arrays,
                                   through_aggregate)
            _assert_same_bits(got, want)
            assert not (np.signbit(got[2]) & (got[2] == 0)).any()  # no -0.0 left


class TestBlock:
    def test_from_dense_mask(self):
        mask = np.array([[True, False, True, False],
                         [False, True, False, False]])
        block = from_dense(mask)
        assert (block.n_dst, block.n_src) == (2, 4)
        np.testing.assert_array_equal(block.indptr, [0, 2, 3])
        np.testing.assert_array_equal(block.indices, [0, 2, 1])
        np.testing.assert_array_equal(block.rows, [0, 0, 1])
        assert block.weights is None
        np.testing.assert_array_equal(to_dense(block), mask)

    def test_from_dense_weights_round_trip(self):
        matrix = np.array([[0.25, 0.0, 0.75], [0.0, 1.0, 0.0]], dtype=np.float32)
        block = from_dense(matrix)
        np.testing.assert_array_equal(block.weights, [0.25, 0.75, 1.0])
        np.testing.assert_array_equal(to_dense(block), matrix)

    def test_repeated_edge_counts_once(self):
        block = Block.from_edges(2, 3, np.array([1, 0, 1, 1]), np.array([2, 1, 2, 0]), mean=True)
        np.testing.assert_array_equal(block.indptr, [0, 1, 3])
        np.testing.assert_array_equal(block.indices, [1, 0, 2])
        np.testing.assert_array_equal(block.weights, [1.0, 0.5, 0.5])

    def test_rank_groups_name_no_target_twice(self):
        rng = np.random.default_rng(0)
        block = from_dense((rng.random((30, 12)) < 0.3) | np.eye(30, 12, dtype=bool))
        for groups, into in ((block.by_row, block.rows), (block.by_col, block.indices)):
            assert sorted(groups.order.tolist()) == list(range(len(block.indices)))
            derived = into[groups.order]  # what _weighted_sum sums into
            for lo, hi in zip(groups.bounds, groups.bounds[1:]):
                assert len(np.unique(derived[lo:hi])) == hi - lo

    def test_row_without_an_edge_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            from_dense(np.array([[True, False], [False, False]]))

    def test_edge_outside_the_frontier_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Block(2, np.array([0, 1]), np.array([2]))


def test_no_dense_array_on_the_sparse_path():
    """One GAT forward/backward over 4,000 x 20,000 nodes, 32 wide into
    256, stays under 64 MB; a dense float32 mask of that block alone is
    320 MB, and one float32 [n_src, 256] projection of the sources 20 MB."""
    n_dst, n_src, fanout = 4_000, 20_000, 5
    rng = np.random.default_rng(0)
    rows = np.repeat(np.arange(n_dst), fanout)
    block = Block.from_edges(n_dst, n_src, rows, rng.integers(0, n_src, len(rows)))
    layer = GATLayer(32, 256, rng=rng)
    x_src = Tensor(rng.normal(size=(n_src, 32)), requires_grad=True)
    tracemalloc.start()
    try:
        layer(x_src, np.arange(n_dst), block).sum().backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x_src.grad is not None and x_src.grad.shape == (n_src, 32)
    assert peak < 64 << 20
