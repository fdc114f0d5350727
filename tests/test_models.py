"""Model zoo: DLRM, KGE, GNN forward semantics and gradient flow."""

import numpy as np
import pytest

from repro.models import (
    ComplEx,
    DCN,
    DistMult,
    FFNN,
    GAT,
    GATLayer,
    GraphSage,
    SageLayer,
)
from gnn_oracle import from_dense
from repro.nn import Tensor
from repro.nn.sparse import Block, edge_logits, edge_softmax


class TestDLRM:
    def _inputs(self, batch=4, dense=13, fields=3, dim=8, seed=0):
        rng = np.random.default_rng(seed)
        dense_feats = rng.normal(size=(batch, dense)).astype(np.float32)
        emb = Tensor(rng.normal(size=(batch, fields, dim)), requires_grad=True)
        return dense_feats, emb

    def test_ffnn_logit_shape(self):
        dense, emb = self._inputs()
        net = FFNN(num_dense=13, num_fields=3, emb_dim=8)
        assert net(dense, emb).shape == (4,)

    def test_ffnn_gradients_reach_embeddings(self):
        dense, emb = self._inputs()
        net = FFNN(num_dense=13, num_fields=3, emb_dim=8)
        net(dense, emb).sum().backward()
        assert emb.grad is not None and emb.grad.shape == (4, 3, 8)
        assert np.abs(emb.grad).sum() > 0

    def test_dcn_logit_shape_and_grads(self):
        dense, emb = self._inputs()
        net = DCN(num_dense=13, num_fields=3, emb_dim=8, num_cross=2)
        out = net(dense, emb)
        assert out.shape == (4,)
        out.sum().backward()
        assert emb.grad is not None

    def test_dcn_has_cross_and_deep_parameters(self):
        net = DCN(num_dense=4, num_fields=2, emb_dim=4, num_cross=3)
        names = len(list(net.parameters()))
        assert names >= 3 * 2 + 2 + 2  # cross (w,b) ×3 + deep + head

    def test_models_differ_in_output(self):
        dense, emb = self._inputs()
        rng = np.random.default_rng(0)
        ffnn = FFNN(num_dense=13, num_fields=3, emb_dim=8, rng=rng)
        dcn = DCN(num_dense=13, num_fields=3, emb_dim=8, rng=rng)
        assert not np.allclose(ffnn(dense, emb).numpy(), dcn(dense, emb).numpy())


class TestKGE:
    def _vectors(self, batch=4, dim=8, negs=3, seed=0):
        rng = np.random.default_rng(seed)
        h = Tensor(rng.normal(size=(batch, dim)), requires_grad=True)
        t = Tensor(rng.normal(size=(batch, dim)), requires_grad=True)
        n = Tensor(rng.normal(size=(batch, negs, dim)), requires_grad=True)
        r = rng.integers(0, 4, batch)
        return h, r, t, n

    def test_distmult_scores_shapes(self):
        h, r, t, n = self._vectors()
        model = DistMult(num_relations=4, dim=8)
        pos, neg = model(h, r, t, n)
        assert pos.shape == (4,)
        assert neg.shape == (4, 3)

    def test_distmult_score_formula(self):
        model = DistMult(num_relations=1, dim=2)
        model.relations.data = np.array([[2.0, 3.0]], dtype=np.float32)
        h = Tensor(np.array([[1.0, 1.0]]))
        t = Tensor(np.array([[4.0, 5.0]]))
        score = model.score(h, model.relation_vectors(np.array([0])), t)
        assert score.item() == pytest.approx(1 * 2 * 4 + 1 * 3 * 5)

    def test_distmult_is_symmetric(self):
        model = DistMult(num_relations=2, dim=8)
        rng = np.random.default_rng(0)
        h = Tensor(rng.normal(size=(5, 8)))
        t = Tensor(rng.normal(size=(5, 8)))
        r = model.relation_vectors(np.zeros(5, dtype=np.int64))
        np.testing.assert_allclose(
            model.score(h, r, t).numpy(), model.score(t, r, h).numpy(), atol=1e-5
        )

    def test_complex_is_asymmetric(self):
        model = ComplEx(num_relations=2, dim=8)
        rng = np.random.default_rng(0)
        h = Tensor(rng.normal(size=(5, 8)))
        t = Tensor(rng.normal(size=(5, 8)))
        r = model.relation_vectors(np.zeros(5, dtype=np.int64))
        forward = model.score(h, r, t).numpy()
        backward = model.score(t, r, h).numpy()
        assert not np.allclose(forward, backward, atol=1e-3)

    def test_complex_requires_even_dim(self):
        with pytest.raises(ValueError):
            ComplEx(num_relations=2, dim=7)

    def test_gradients_flow_to_entities_and_relations(self):
        h, r, t, n = self._vectors()
        model = ComplEx(num_relations=4, dim=8)
        pos, neg = model(h, r, t, n)
        (pos.sum() + neg.sum()).backward()
        for tensor in (h, t, n, model.relations):
            assert tensor.grad is not None
            assert np.abs(tensor.grad).sum() > 0

    def test_invalid_schema_rejected(self):
        with pytest.raises(ValueError):
            DistMult(num_relations=0, dim=8)


class TestGNNLayers:
    def test_sage_mean_aggregation_exact(self):
        layer = SageLayer(2, 2, activation=False)
        layer.w_self.weight.data = np.eye(2, dtype=np.float32)
        layer.w_self.bias.data = np.zeros(2, dtype=np.float32)
        layer.w_neigh.weight.data = np.eye(2, dtype=np.float32)
        # Sources: the destination itself, then its two neighbors.
        x_src = Tensor(np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 4.0]]))
        block = from_dense(np.array([[0.0, 0.5, 0.5]], dtype=np.float32))
        out = layer(x_src, np.array([0]), block).numpy()
        np.testing.assert_allclose(out, [[1.0 + 1.0, 1.0 + 2.0]])

    def test_gat_attention_rows_normalized(self):
        layer = GATLayer(4, 4)
        rng = np.random.default_rng(0)
        x_src = Tensor(rng.normal(size=(5, 4)))
        dst_index = np.array([0, 1])
        mask = np.array([[True, True, False, False, True],
                         [False, True, True, False, False]])
        block = from_dense(mask)

        h_src = layer.w(x_src)
        logits = edge_logits(block, h_src, layer.a_src, layer.a_dst, dst_index)
        att = np.zeros(mask.shape, dtype=np.float32)
        att[block.rows, block.indices] = edge_softmax(block, logits.leaky_relu(0.2)).numpy()
        np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-5)
        assert (att[mask] > 0).all() and not att[~mask].any()
        # The layer's output is those attention weights over the projected sources.
        layer.activation = False
        np.testing.assert_allclose(
            layer(x_src, dst_index, block).numpy(), att @ h_src.numpy(), atol=1e-5)


class TestGNNModels:
    def _blocks(self, mean, num_input=10, num_mid=6, num_seeds=3, dim=8, seed=0):
        rng = np.random.default_rng(seed)
        features = Tensor(rng.normal(size=(num_input, dim)), requires_grad=True)
        frontiers = [
            np.arange(num_mid),             # mid-layer dst nodes
            np.arange(num_seeds),           # seeds within mid frontier
        ]
        blocks = []
        for n_dst, n_src in ((num_mid, num_input), (num_seeds, num_mid)):
            mask = (rng.random((n_dst, n_src)) > 0.4) | np.eye(n_dst, n_src, dtype=bool)
            rows, cols = np.nonzero(mask)
            blocks.append(Block.from_edges(n_dst, n_src, rows, cols, mean=mean))
        return features, frontiers, blocks

    def test_graphsage_forward_shape(self):
        features, frontiers, blocks = self._blocks(mean=True)
        net = GraphSage(in_dim=8, hidden_dim=16, num_classes=5)
        logits = net(features, frontiers, blocks)
        assert logits.shape == (3, 5)

    def test_graphsage_gradients_reach_input_features(self):
        features, frontiers, blocks = self._blocks(mean=True)
        net = GraphSage(in_dim=8, hidden_dim=16, num_classes=5)
        net(features, frontiers, blocks).sum().backward()
        assert features.grad is not None
        assert np.abs(features.grad).sum() > 0

    def test_gat_forward_with_masks(self):
        features, frontiers, blocks = self._blocks(mean=False)
        net = GAT(in_dim=8, hidden_dim=16, num_classes=4)
        logits = net(features, frontiers, blocks)
        assert logits.shape == (3, 4)
        logits.sum().backward()
        assert features.grad is not None

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            GraphSage(in_dim=4, hidden_dim=4, num_classes=2, num_layers=0)
