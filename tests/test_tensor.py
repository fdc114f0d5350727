"""Autograd engine: every op gradient-checked against finite differences."""

import numpy as np
import pytest

from gnn_oracle import from_dense
from repro.nn import Tensor
from repro.nn.functional import concat, logsigmoid, softmax, stack
from repro.nn.sparse import aggregate, edge_logits, edge_softmax


def numeric_grad(fn, arrays, index, eps=1e-3):
    """Central-difference gradient of scalar ``fn`` w.r.t. ``arrays[index]``."""
    target = arrays[index]
    grad = np.zeros_like(target)
    it = np.nditer(target, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = target[idx]
        target[idx] = original + eps
        plus = fn(*arrays)
        target[idx] = original - eps
        minus = fn(*arrays)
        target[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradients(build, *shapes, seed=0, atol=5e-2):
    """``build(*tensors) -> scalar Tensor``; checks every input's gradient."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0.2, 0.8, shape).astype(np.float32) for shape in shapes]

    def scalar(*arrs):
        tensors = [Tensor(a, requires_grad=True) for a in arrs]
        return float(build(*tensors).item())

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for i, tensor in enumerate(tensors):
        expected = numeric_grad(scalar, [a.copy() for a in arrays], i)
        assert tensor.grad is not None, f"input {i} missing grad"
        np.testing.assert_allclose(tensor.grad, expected, atol=atol,
                                   err_msg=f"input {i} gradient mismatch")


# Three destinations over four sources: a hub column (0), a row with one
# edge, and a source (3) only one row points at.
EDGES = from_dense(np.array([[True, True, False, False],
                                   [True, False, False, False],
                                   [True, True, True, True]]))


class TestGradcheck:
    def test_add(self):
        check_gradients(lambda a, b: (a + b).sum(), (3, 4), (3, 4))

    def test_add_broadcast_bias(self):
        check_gradients(lambda a, b: (a + b).sum(), (3, 4), (4,))

    def test_mul(self):
        check_gradients(lambda a, b: (a * b).sum(), (3, 4), (3, 4))

    def test_mul_broadcast(self):
        check_gradients(lambda a, b: (a * b).sum(), (3, 1, 4), (2, 4))

    def test_div(self):
        check_gradients(lambda a, b: (a / (b * b + 1.0)).sum(), (3,), (3,))

    def test_sub_neg(self):
        check_gradients(lambda a, b: (a - b).sum() + (-a).sum(), (4,), (4,))

    def test_pow(self):
        check_gradients(lambda a: ((a * a + 1.0) ** 1.5).sum(), (5,))

    def test_matmul(self):
        check_gradients(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))

    def test_batched_matmul(self):
        check_gradients(lambda a, b: (a @ b).sum(), (2, 3, 4), (2, 4, 2))

    def test_reshape_transpose(self):
        check_gradients(lambda a: (a.reshape(6, 2).T * 2.0).sum(), (3, 4))

    def test_getitem_int_array(self):
        index = np.array([0, 2, 2, 1])

        def build(a):
            return (a[index] * a[index]).sum()

        check_gradients(build, (3, 4))

    def test_getitem_slices(self):
        check_gradients(lambda a: (a[..., :2] * 3.0).sum() + a[..., 2:].sum(), (3, 4))

    def test_sum_axis_keepdims(self):
        check_gradients(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), (3, 4))

    def test_mean(self):
        check_gradients(lambda a: a.mean(axis=0).sum() * 2.0, (4, 3))

    def test_max(self):
        # Avoid ties for a well-defined numeric gradient.
        rng = np.random.default_rng(1)
        data = rng.permutation(24).reshape(4, 6).astype(np.float32)

        def scalar(arr):
            return float(Tensor(arr, requires_grad=True).max(axis=1).sum().item())

        tensor = Tensor(data, requires_grad=True)
        tensor.max(axis=1).sum().backward()
        expected = numeric_grad(lambda a: scalar(a), [data.copy()], 0)
        np.testing.assert_allclose(tensor.grad, expected, atol=5e-2)

    def test_relu(self):
        check_gradients(lambda a: (a.relu() * 2.0).sum(), (4, 4))

    def test_leaky_relu(self):
        check_gradients(lambda a: a.leaky_relu(0.1).sum(), (4, 4))

    def test_sigmoid_tanh_exp_log(self):
        check_gradients(lambda a: (a.sigmoid() + a.tanh() + a.exp()).sum(), (3, 3))
        check_gradients(lambda a: ((a * a) + 1.0).log().sum(), (3,))

    def test_concat(self):
        check_gradients(lambda a, b: (concat([a, b], axis=1) ** 2.0).sum(), (2, 3), (2, 2))

    def test_stack(self):
        check_gradients(lambda a, b: (stack([a, b], axis=0) * 2.0).sum(), (2, 3), (2, 3))

    def test_softmax(self):
        check_gradients(lambda a: (softmax(a, axis=1) * np.arange(4)).sum(), (3, 4))

    def test_masked_softmax(self):
        """The masked form is a softmax over each row's edges."""
        check_gradients(
            lambda a: (edge_softmax(EDGES, a) * np.arange(7)).sum(), (7,)
        )

    def test_edge_logits(self):
        dst_index = np.array([2, 0, 3])  # destinations' positions among the sources
        check_gradients(
            lambda h, a_src, a_dst: (
                edge_logits(EDGES, h, a_src, a_dst, dst_index) * np.arange(7)).sum(),
            (4, 3), (3, 1), (3, 1)
        )

    def test_aggregate(self):
        check_gradients(lambda w, h: (aggregate(EDGES, w, h) ** 2.0).sum(), (7,), (4, 3))

    def test_logsigmoid(self):
        check_gradients(lambda a: logsigmoid(a).sum(), (5,))


def _signed_zeros(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Normal draws with a third of the entries 0.0 and a third -0.0."""
    values = rng.normal(size=shape).astype(np.float32)
    draw = rng.random(shape)
    values[draw < 1 / 3] = 0.0
    values[draw > 2 / 3] = -0.0
    return values


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint32)


class TestInnerDimensionOne:
    """A product with inner dimension 1 is a broadcast multiply in the
    backward pass; it must equal ``np.matmul`` bit for bit, which starts
    each sum at +0.0 and so never returns a -0.0."""

    @pytest.mark.parametrize("seed", range(4))
    def test_a_vector_product_equals_matmul(self, seed):
        rng = np.random.default_rng(seed)
        x, a = _signed_zeros(rng, (37, 9)), _signed_zeros(rng, (9, 1))
        upstream = _signed_zeros(rng, (37, 1))
        x_t, a_t = Tensor(x, requires_grad=True), Tensor(a, requires_grad=True)
        (x_t @ a_t).backward(upstream)
        assert np.array_equal(_bits(x_t.grad), _bits(np.matmul(upstream, a.T)))
        assert np.array_equal(_bits(a_t.grad), _bits(np.matmul(x.T, upstream)))

    @pytest.mark.parametrize("seed", range(4))
    def test_a_one_row_batch_equals_matmul(self, seed):
        rng = np.random.default_rng(seed)
        x, w = _signed_zeros(rng, (1, 6)), _signed_zeros(rng, (6, 5))
        upstream = _signed_zeros(rng, (1, 5))
        x_t, w_t = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        (x_t @ w_t).backward(upstream)
        assert np.array_equal(_bits(w_t.grad), _bits(np.matmul(x.T, upstream)))
        assert np.array_equal(_bits(x_t.grad), _bits(np.matmul(upstream, w.T)))

    def test_batched_vector_products_equal_matmul(self):
        rng = np.random.default_rng(7)
        x, a = _signed_zeros(rng, (3, 8, 4)), _signed_zeros(rng, (3, 4, 1))
        upstream = _signed_zeros(rng, (3, 8, 1))
        x_t, a_t = Tensor(x, requires_grad=True), Tensor(a, requires_grad=True)
        (x_t @ a_t).backward(upstream)
        want = np.matmul(upstream, np.swapaxes(a, -1, -2))
        assert np.array_equal(_bits(x_t.grad), _bits(want))

    def test_no_negative_zero_survives(self):
        """-0.0 x 1.0 and 0.0 x -1.0 are both -0.0; matmul's sum makes them +0.0."""
        x_t = Tensor(np.ones((2, 3)), requires_grad=True)
        a_t = Tensor(np.array([[1.0], [-1.0], [2.0]]), requires_grad=True)
        (x_t @ a_t).backward(np.array([[-0.0], [0.0]], dtype=np.float32))
        assert x_t.grad.shape == (2, 3) and not x_t.grad.any()
        assert not np.signbit(x_t.grad).any()


class TestAutogradMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.ones(3), requires_grad=True)
        ((x * 2.0).sum() + (x * 3.0).sum()).backward()
        np.testing.assert_allclose(x.grad, np.full(3, 5.0))

    def test_diamond_graph_single_backward_per_node(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        z = (y * y).sum()  # z = 9x² → dz/dx = 18x = 36
        z.backward()
        np.testing.assert_allclose(x.grad, [36.0])

    def test_detach_stops_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x.detach() * x).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))  # only one path

    def test_no_grad_tensors_stay_clean(self):
        x = Tensor(np.ones(3))
        y = Tensor(np.ones(3), requires_grad=True)
        (x * y).sum().backward()
        assert x.grad is None

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_float32_everywhere(self):
        x = Tensor([1, 2, 3], requires_grad=True)
        out = (x * 2.5).sum()
        out.backward()
        assert x.data.dtype == np.float32
        assert x.grad.dtype == np.float32

    def test_masked_softmax_zeroes_masked_positions(self):
        """Only edges carry probability: a masked position has no entry."""
        block = from_dense(np.array([[True, False, True]]))
        probs = edge_softmax(block, Tensor(np.zeros(2))).numpy()
        np.testing.assert_array_equal(block.indices, [0, 2])
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_deep_chain_does_not_recurse(self):
        x = Tensor(np.ones(1), requires_grad=True)
        out = x
        for _ in range(3000):  # would blow the recursion limit if recursive
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])
