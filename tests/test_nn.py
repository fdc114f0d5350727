"""Layers, optimizers and losses."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    CrossLayer,
    Linear,
    MLP,
    Module,
    ReLU,
    RowAdagrad,
    Sequential,
    Tensor,
    bce_with_logits,
    logistic_ranking_loss,
    softmax_cross_entropy,
)


class TestLayers:
    def test_linear_shapes_and_grads(self):
        layer = Linear(4, 3)
        out = layer(Tensor(np.ones((5, 4)), requires_grad=True))
        assert out.shape == (5, 3)
        out.sum().backward()
        assert layer.weight.grad.shape == (4, 3)
        assert layer.bias.grad.shape == (3,)

    def test_linear_without_bias(self):
        layer = Linear(4, 3, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_mlp_structure(self):
        mlp = MLP([8, 16, 4])
        out = mlp(Tensor(np.zeros((2, 8))))
        assert out.shape == (2, 4)
        assert len(list(mlp.parameters())) == 4  # 2 × (weight + bias)

    def test_sequential_composition(self):
        net = Sequential(Linear(4, 4), ReLU(), Linear(4, 2))
        assert net(Tensor(np.zeros((3, 4)))).shape == (3, 2)

    def test_cross_layer_formula(self):
        layer = CrossLayer(3)
        layer.weight.data = np.array([[1.0], [0.0], [0.0]], dtype=np.float32)
        layer.bias.data = np.zeros(3, dtype=np.float32)
        x0 = Tensor(np.array([[1.0, 2.0, 3.0]]))
        xl = Tensor(np.array([[4.0, 5.0, 6.0]]))
        out = layer(x0, xl).numpy()
        # x0 * (xl·w) + b + xl = [1,2,3]*4 + [4,5,6]
        np.testing.assert_allclose(out, [[8.0, 13.0, 18.0]])

    def test_module_mode_propagates(self):
        net = Sequential(ReLU(), Sequential(Linear(2, 2)))
        inner = (net.modules[0], net.modules[1].modules[0])
        net.eval()
        assert not any(module.training for module in inner)
        net.train()
        assert all(module.training for module in inner)

    def test_parameter_discovery_through_lists(self):
        class WithList(Module):
            def __init__(self):
                super().__init__()
                self.layers = [Linear(2, 2), Linear(2, 2)]

        assert len(list(WithList().parameters())) == 4

    def test_state_dict_roundtrip(self):
        net = MLP([4, 8, 2])
        state = net.state_dict()
        for param in net.parameters():
            param.data[:] = 0.0
        net.load_state_dict(state)
        assert any(param.data.any() for param in net.parameters())

    def test_state_dict_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MLP([4, 8, 2]).load_state_dict([np.zeros(1)])

    def test_flops_positive(self):
        assert MLP([8, 16, 1]).flops_per_sample() == 2 * (8 * 16 + 16 * 1)


def _loss_after_training(optimizer_factory, steps=150):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 4)).astype(np.float32)
    true_w = rng.normal(size=(4, 1)).astype(np.float32)
    y = x @ true_w
    layer = Linear(4, 1, rng=rng)
    optimizer = optimizer_factory(layer.parameters())
    loss_value = None
    for _ in range(steps):
        pred = layer(Tensor(x))
        diff = pred - Tensor(y)
        loss = (diff * diff).mean()
        layer.zero_grad()
        loss.backward()
        optimizer.step()
        loss_value = loss.item()
    return loss_value


class TestOptimizers:
    def test_adam_converges(self):
        assert _loss_after_training(lambda p: Adam(p, lr=0.05)) < 1e-3

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            RowAdagrad(lr=-1.0)

    def test_step_skips_parameters_without_grad(self):
        param = Tensor(np.ones(3), requires_grad=True)
        before = param.data.copy()
        Adam([param], lr=0.1).step()
        np.testing.assert_array_equal(param.data, before)


class TestRowAdagrad:
    def test_adaptive_scales_by_accumulated_square(self):
        opt = RowAdagrad(lr=1.0)
        keys = np.array([7])
        rows = np.zeros((1, 2), dtype=np.float32)
        grads = np.ones((1, 2), dtype=np.float32)
        first = opt.updated_rows(keys, rows, grads)
        np.testing.assert_allclose(first, -1.0, atol=1e-5)  # g/√(g²)=1
        second = opt.updated_rows(keys, first, grads)
        np.testing.assert_allclose(second, first - 1.0 / np.sqrt(2.0), atol=1e-4)

    def test_state_isolated_per_key(self):
        opt = RowAdagrad(lr=1.0)
        rows = np.zeros((1, 2), dtype=np.float32)
        grads = np.ones((1, 2), dtype=np.float32)
        opt.updated_rows(np.array([1]), rows, grads)
        fresh = opt.updated_rows(np.array([2]), rows, grads)
        np.testing.assert_allclose(fresh, -1.0, atol=1e-5)

    def test_state_holds_one_row_per_updated_key(self):
        opt = RowAdagrad()
        assert opt.state_dict() == {"accumulators": {}}
        grads = np.full((1, 8), 2.0, dtype=np.float32)
        opt.updated_rows(np.array([1]), np.zeros((1, 8), np.float32), grads)
        opt.updated_rows(np.array([1]), np.zeros((1, 8), np.float32), grads)
        accumulators = opt.state_dict()["accumulators"]
        assert list(accumulators) == [1]  # a repeat key adds no row
        np.testing.assert_array_equal(accumulators[1], np.full(8, 8.0, np.float32))


class TestLosses:
    def test_bce_matches_manual(self):
        logits = Tensor(np.array([0.0, 2.0, -2.0]), requires_grad=True)
        labels = np.array([1.0, 1.0, 0.0])
        loss = bce_with_logits(logits, labels)
        probs = 1 / (1 + np.exp(-logits.numpy()))
        expected = -np.mean(labels * np.log(probs) + (1 - labels) * np.log(1 - probs))
        assert loss.item() == pytest.approx(expected, abs=1e-5)

    def test_bce_gradient_sign(self):
        logits = Tensor(np.zeros(2), requires_grad=True)
        bce_with_logits(logits, np.array([1.0, 0.0])).backward()
        assert logits.grad[0] < 0  # push positive logit up
        assert logits.grad[1] > 0

    def test_bce_stable_at_extreme_logits(self):
        logits = Tensor(np.array([100.0, -100.0]), requires_grad=True)
        loss = bce_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.isfinite(logits.grad).all()

    def test_softmax_ce_matches_manual(self):
        logits_data = np.array([[2.0, 1.0, 0.1], [0.5, 2.5, 0.0]], dtype=np.float32)
        labels = np.array([0, 1])
        loss = softmax_cross_entropy(Tensor(logits_data, requires_grad=True), labels)
        shifted = logits_data - logits_data.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(2), labels].mean()
        assert loss.item() == pytest.approx(expected, abs=1e-5)

    def test_softmax_ce_grad_sums_to_zero_per_row(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
        softmax_cross_entropy(logits, np.array([0, 1, 2, 0])).backward()
        np.testing.assert_allclose(logits.grad.sum(axis=1), 0.0, atol=1e-6)

    def test_ranking_loss_prefers_separated_scores(self):
        good = logistic_ranking_loss(
            Tensor(np.full(4, 5.0)), Tensor(np.full((4, 3), -5.0))
        ).item()
        bad = logistic_ranking_loss(
            Tensor(np.full(4, -5.0)), Tensor(np.full((4, 3), 5.0))
        ).item()
        assert good < 0.1 < bad

    def test_ranking_loss_gradients_flow_to_both(self):
        pos = Tensor(np.zeros(3), requires_grad=True)
        neg = Tensor(np.zeros((3, 2)), requires_grad=True)
        logistic_ranking_loss(pos, neg).backward()
        assert pos.grad is not None and neg.grad is not None
        assert (pos.grad < 0).all()  # increase positive scores
        assert (neg.grad > 0).all()  # decrease negative scores
