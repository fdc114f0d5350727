"""The gradient path as array kernels: exactness, ownership, call budget.

(a) ``_scatter_rows`` and the basic-index backward against ``np.add.at``
    on raw float32 bits — ``np.add.at`` is the reference every index form
    must equal, and the path the remaining forms still take.
(b) gradients handed over (``_accumulate(..., owned=True)``) against the
    same graph with every first gradient copied, bit for bit, on the six
    models; no ``.grad`` shares memory with anything else.
(e) Python call events per unique key inside one DLRM training step's
    ``compute_gradients`` + ``emb_optimizer.updated_rows``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.data.ctr import CTRDataset
from repro.device import GPUModel, SimClock, SSDModel
from repro.models import DCN, FFNN, GAT, ComplEx, DistMult, GraphSage
from repro.nn.losses import (
    bce_with_logits,
    logistic_ranking_loss,
    softmax_cross_entropy,
)
from repro.nn.sparse import Block
from repro.nn.tensor import Tensor, _scatter_rows, _unbroadcast
from repro.train import DLRMTrainer, TrainerConfig


def bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(arr, np.float32)).view(np.uint32)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal float32 bit patterns; a NaN equals any NaN.  (Which operand's
    sign and payload ``nan + nan`` keeps is each compiled loop's choice of
    operand order: numpy's own 1-D and N-d ``add.at`` loops differ.)"""
    if got.shape != want.shape or not np.array_equal(np.isnan(got), np.isnan(want)):
        return False
    return np.array_equal(bits(got)[~np.isnan(got)], bits(want)[~np.isnan(want)])


def add_at(shape: tuple[int, ...], index, grad: np.ndarray) -> np.ndarray:
    full = np.zeros(shape, dtype=np.float32)
    np.add.at(full, index, grad)
    return full


# ----------------------------------------------------------------------
# (a) scatter kernel == np.add.at
# ----------------------------------------------------------------------
SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1e-39, 1.0, -1.0, 3.1e38],
    dtype=np.float32,
)


@st.composite
def scatter_cases(draw):
    rows = draw(st.integers(1, 12))
    width = draw(st.sampled_from([1, 2, 32, 256]))
    shape = tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=3)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # ``hot`` rows concentrate the index: up to the whole batch on one row,
    # and rows outside ``hot`` are never named.
    hot = rng.choice(rows, size=draw(st.integers(1, rows)), replace=False)
    index = rng.choice(hot, size=shape).astype(draw(st.sampled_from([np.int64, np.int32])))
    if draw(st.booleans()):  # numpy's negative indices name the same rows
        index = np.where(rng.random(shape) < 0.5, index - rows, index)
    grad = rng.standard_normal(shape + (width,)).astype(np.float32)
    special = rng.random(grad.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    grad[special] = rng.choice(SPECIALS, size=int(special.sum()))
    if draw(st.booleans()) and grad.size:  # a non-contiguous gradient
        grad = np.asfortranarray(grad)
    return rows, index, grad


class TestScatterKernel:
    @settings(max_examples=300, deadline=None)
    @given(scatter_cases())
    def test_scatter_rows_equals_add_at(self, case):
        rows, index, grad = case
        want = add_at((rows, grad.shape[-1]), index, grad)
        got = _scatter_rows(index, grad, rows)
        assert got.dtype == np.float32 and got.flags.writeable
        assert same_bits(got, want)

    def test_whole_batch_on_one_row_adds_in_occurrence_order(self):
        # In float32, (1e8 + 1) - 1e8 is 0 and (1e8 - 1e8) + 1 is 1.
        grad = np.array([[1e8], [1.0], [-1e8]], dtype=np.float32)
        index = np.zeros(3, dtype=np.int64)
        assert same_bits(_scatter_rows(index, grad, 2), add_at((2, 1), index, grad))
        assert _scatter_rows(index, grad, 2)[0, 0] == 0.0

    def test_a_lone_negative_zero_comes_out_positive(self):
        grad = np.full((2, 3), -0.0, dtype=np.float32)
        got = _scatter_rows(np.array([0, 2]), grad, 3)
        assert not np.signbit(got).any()

    def test_empty_index(self):
        got = _scatter_rows(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 4, 8), np.float32), 5)
        assert got.shape == (5, 8) and not got.any()

    @pytest.mark.parametrize(
        "shape,index",
        [
            ((6, 8), (Ellipsis, slice(None, 4))),       # ComplEx's half-split
            ((6, 8), (Ellipsis, slice(4, None))),
            ((5, 3, 8), (slice(1, 4), 2)),
            ((5, 3, 8), -1),
            ((5, 8), slice(None, None, 2)),
            ((5, 8), np.int64(3)),
            # the forms that still go through np.add.at
            ((4, 6), (np.arange(4), np.array([5, 0, 0, 2]))),   # cross-entropy's pick
            ((4, 6), np.array([True, False, True, True])),
            ((4, 6), [1, 1, 3]),
            ((4, 3, 2), np.array([[0, 3], [3, 3]])),             # integer array, 3-D tensor
            ((4, 6), (np.array([1, 1, 2]), slice(0, 3))),
            ((4, 6), None),
        ],
    )
    def test_every_index_form_equals_add_at(self, shape, index):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        out = x[index]
        grad = rng.standard_normal(out.shape).astype(np.float32)
        grad[rng.random(out.shape) < 0.4] = -0.0
        out.backward(grad)
        assert same_bits(x.grad, add_at(shape, index, grad))

    def test_gather_and_basic_index_backward_never_reach_nd_add_at(self):
        """One path: ``ufunc.at`` is called from the kernel (on the flattened
        duplicates) and from nowhere else."""
        callers = []

        def watch(frame, event, arg):
            if event == "c_call" and getattr(arg, "__name__", "") == "at":
                callers.append(frame.f_code.co_name)

        rng = np.random.default_rng(0)
        leaf = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
        index = rng.integers(0, 7, size=(5, 3))
        loss = leaf[index][..., :2].sum() + leaf[index][:, 1].sum()
        sys.setprofile(watch)
        try:
            loss.backward()
        finally:
            sys.setprofile(None)
        assert callers and set(callers) == {"_scatter_rows"}


# ----------------------------------------------------------------------
# (b) handed over == copied, and nothing aliases
# ----------------------------------------------------------------------
def always_copy(self, grad, owned=False):
    """``Tensor._accumulate`` as it was before gradients were handed over."""
    grad = _unbroadcast(grad, self.data.shape)
    if self.grad is None:
        self.grad = grad.astype(np.float32, copy=True)
    else:
        self.grad += grad


def graph_of(root: Tensor) -> list[Tensor]:
    seen: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def assert_no_aliasing(nodes: list[Tensor], parameters: list[Tensor]) -> None:
    """No ``.grad`` shares memory with another ``.grad``, a tensor's data
    or an array a backward closure still reads."""
    grads = [node.grad for node in nodes if isinstance(node.grad, np.ndarray)]
    read = [node.data for node in nodes] + [param.data for param in parameters]
    for node in nodes:
        for cell in getattr(node._backward, "__closure__", None) or ():
            if isinstance(cell.cell_contents, np.ndarray):
                read.append(cell.cell_contents)
    for i, grad in enumerate(grads):
        assert grad.dtype == np.float32 and grad.flags.writeable
        for other in grads[i + 1:]:
            assert not np.shares_memory(grad, other)
        for array in read:
            assert not np.shares_memory(grad, array)


def dlrm_loss(net_class):
    def build(rng):
        net = net_class(num_dense=5, num_fields=4, emb_dim=8, rng=rng)
        leaf = Tensor(rng.standard_normal((9, 8)), requires_grad=True)
        index = rng.integers(0, 9, size=(16, 4))
        dense = rng.standard_normal((16, 5)).astype(np.float32)
        labels = rng.integers(0, 2, 16)
        return net, leaf, lambda: bce_with_logits(net(dense, leaf[index]), labels)
    return build


def kge_loss(net_class):
    def build(rng):
        net = net_class(num_relations=3, dim=8, rng=rng)
        leaf = Tensor(rng.standard_normal((20, 8)), requires_grad=True)
        heads, tails = rng.integers(0, 20, 6), rng.integers(0, 20, 6)
        negs, relations = rng.integers(0, 20, (6, 4)), rng.integers(0, 3, 6)

        def loss():
            pos, neg = net(leaf[heads], relations, leaf[tails], leaf[negs])
            return logistic_ranking_loss(pos, neg)
        return net, leaf, loss
    return build


def gnn_loss(net_class, mean):
    def build(rng):
        net = net_class(in_dim=8, hidden_dim=16, num_classes=4, rng=rng)
        leaf = Tensor(rng.standard_normal((12, 8)), requires_grad=True)
        index = rng.permutation(12)
        frontiers = [np.arange(7), np.arange(3)]
        blocks = []
        for n_dst, n_src in ((7, 12), (3, 7)):
            mask = (rng.random((n_dst, n_src)) > 0.5) | np.eye(n_dst, n_src, dtype=bool)
            blocks.append(Block.from_edges(n_dst, n_src, *np.nonzero(mask), mean=mean))
        labels = rng.integers(0, 4, 3)
        return net, leaf, lambda: softmax_cross_entropy(net(leaf[index], frontiers, blocks), labels)
    return build


MODELS = {
    "ffnn": dlrm_loss(FFNN), "dcn": dlrm_loss(DCN),
    "distmult": kge_loss(DistMult), "complex": kge_loss(ComplEx),
    "sage": gnn_loss(GraphSage, True), "gat": gnn_loss(GAT, False),
}


class TestHandedOverGradients:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_equal_to_copied_and_nothing_aliases(self, name, monkeypatch):
        net, leaf, make_loss = MODELS[name](np.random.default_rng(3))
        tensors = [leaf, *net.parameters()]
        real = Tensor._accumulate
        holders: dict[int, Tensor] = {}

        def checked(self, grad, owned=False):
            # During backward too: after every hand-over, copy or add.
            real(self, grad, owned)
            if isinstance(self.grad, np.ndarray):
                holders[id(self)] = self
                for other in holders.values():
                    assert other is self or not np.shares_memory(self.grad, other.grad)

        monkeypatch.setattr(Tensor, "_accumulate", checked)
        loss = make_loss()
        loss.backward()
        assert_no_aliasing(graph_of(loss), list(net.parameters()))
        handed = [t.grad.copy() for t in tensors]
        assert all(np.abs(g).sum() > 0 for g in handed)

        for t in tensors:
            t.zero_grad()
        monkeypatch.setattr(Tensor, "_accumulate", always_copy)
        make_loss().backward()
        for t, want in zip(tensors, handed):
            assert same_bits(t.grad, want)

    def test_a_tensor_used_three_times(self):
        x = Tensor(np.array([[1.5, -2.0], [0.25, 3.0]]), requires_grad=True)
        out = x * x + x
        out.backward()
        assert same_bits(x.grad, 2 * x.data + 1)
        assert_no_aliasing(graph_of(out), [x])

    def test_add_gives_each_parent_its_own_array(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (a + b) * 3.0
        out.backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        assert same_bits(b.grad, np.full((2, 2), 3.0))

    def test_backward_twice_accumulates_as_it_did_with_copies(self, monkeypatch):
        def twice():
            x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
            w = Tensor(np.array([0.5, 0.25, 0.125]), requires_grad=True)
            out = (x * w).relu().sum()
            out.backward()
            first = x.grad.copy()
            out.backward()  # interior gradients are still there and grow too
            assert_no_aliasing(graph_of(out), [x, w])
            return first, x.grad, w.grad

        first, x_grad, w_grad = twice()
        assert np.abs(x_grad).sum() > np.abs(first).sum()
        monkeypatch.setattr(Tensor, "_accumulate", always_copy)
        _, x_want, w_want = twice()
        assert same_bits(x_grad, x_want) and same_bits(w_grad, w_want)

    def test_the_seed_stays_the_callers(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        seed = np.full((2, 3), 2.0, dtype=np.float32)
        out = x * 1.0
        out.backward(seed)
        assert not np.shares_memory(out.grad, seed)
        out.grad += 1.0
        assert (seed == 2.0).all()

    def test_views_of_the_child_gradient_are_copied(self):
        from repro.nn.functional import concat, stack

        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([x.reshape(3, 2).transpose(), stack([y, y], axis=0).sum(axis=0)], axis=1)
        out.backward()
        assert_no_aliasing(graph_of(out), [x, y])
        assert x.grad.flags.owndata or x.grad.base is not out.grad


# ----------------------------------------------------------------------
# (e) Python call events per unique key in the gradient path
# ----------------------------------------------------------------------
#: 3.18 at the commit before the array kernels (one ``dict.get`` through a
#: generator per unique key in ``_RowArena.resolve``), 0.27 with them.
#: Deterministic: seeded inputs, no timing.  The ``nn`` sibling of the
#: benchmark's ``kv.py_calls_per_key``.
CALL_EVENTS_PER_UNIQUE_KEY_CEILING = 1.0


def test_call_events_per_unique_key_stay_under_the_ceiling(tmp_path):
    clock = SimClock()
    store = MLKV(str(tmp_path / "s"), ssd=SSDModel(clock), memory_budget_bytes=64 << 20)
    tables = EmbeddingTables(store, dim=32, cache_entries=0)
    dataset = CTRDataset(num_fields=26, field_cardinality=4000, seed=0)
    network = FFNN(dataset.num_dense, dataset.num_fields, 32)
    trainer = DLRMTrainer(
        tables, network, GPUModel(clock), TrainerConfig(batch_size=256), dataset
    )
    events = unique = 0

    def count(frame, event, arg):
        nonlocal events
        if event in ("call", "c_call"):
            events += 1

    for step, batch in enumerate(dataset.batches(12, 256, seed=7)):
        keys = np.unique(trainer.embedding_keys(batch))
        rows = tables.get(keys)
        counted = step >= 2  # two warm-up steps: lazy init, first arena growth
        if counted:
            sys.setprofile(count)
        try:
            _, grads = trainer.compute_gradients(batch, keys, rows)
            new_rows = trainer.emb_optimizer.updated_rows(keys, rows, grads)
        finally:
            sys.setprofile(None)
        unique += len(keys) if counted else 0
        trainer.nn_optimizer.step()
        trainer.network.zero_grad()
        tables.put(keys, new_rows)
    store.close()
    assert unique > 30000
    assert events / unique <= CALL_EVENTS_PER_UNIQUE_KEY_CEILING, events / unique
