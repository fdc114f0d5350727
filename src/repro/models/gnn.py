"""Graph neural networks for node classification.

Both models run over *sampled subgraphs* in minibatch fashion (the DGL
training style the paper uses): the trainer samples an L-hop neighborhood
around the seed nodes and provides, per layer, the frontier-to-frontier
sampled edges as a CSR :class:`~repro.nn.sparse.Block`.  Messages pass
over that edge list, as in DGL; no ``[n_dst, n_src]`` matrix is built.

* :class:`GraphSage` (Hamilton et al. 2017) sums source rows under the
  block's constant ``1/deg`` edge weights (the mean over neighbors).
* :class:`GAT` (Veličković et al. 2018) scores every edge, normalizes
  the scores per destination (:func:`~repro.nn.sparse.edge_softmax`),
  sums the *input* source rows under those attention weights, and then
  projects the sums.  Single-head attention is linear in the projection
  ``W``: ``(x W) a = x (W a)`` and ``sum(alpha x W) = (sum(alpha x)) W``,
  so the edge work runs in the input width and ``W`` meets only the
  ``n_dst`` destination rows, never all ``n_src`` sources.

Node feature vectors (the embeddings fetched from storage) are the leaf
inputs; gradients flow back to them for the sparse update.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear, Module
from repro.nn.sparse import Block, aggregate, edge_logits, edge_softmax
from repro.nn.tensor import Tensor


class SageLayer(Module):
    """GraphSage mean aggregator: ``relu(W_self x_dst + W_neigh mean(x_src))``."""

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.w_self = Linear(in_dim, out_dim, rng=rng)
        self.w_neigh = Linear(in_dim, out_dim, bias=False, rng=rng)
        self.activation = activation

    def forward(self, x_src: Tensor, dst_index: np.ndarray, block: Block) -> Tensor:
        agg = aggregate(block, block.weights, x_src)
        out = self.w_self(x_src[dst_index]) + self.w_neigh(agg)
        return out.relu() if self.activation else out


class GATLayer(Module):
    """Single-head graph attention: softmax over each node's sampled edges."""

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.w = Linear(in_dim, out_dim, bias=False, rng=rng)
        bound = float(np.sqrt(3.0 / out_dim))
        self.a_src = Tensor(rng.uniform(-bound, bound, (out_dim, 1)), requires_grad=True)
        self.a_dst = Tensor(rng.uniform(-bound, bound, (out_dim, 1)), requires_grad=True)
        self.activation = activation

    def forward(self, x_src: Tensor, dst_index: np.ndarray, block: Block) -> Tensor:
        # Aggregate, then project (module docstring): the scores use W a,
        # and W projects only the n_dst aggregated rows.
        w = self.w.weight
        logits = edge_logits(block, x_src, w @ self.a_src, w @ self.a_dst, dst_index)
        logits = logits.leaky_relu(0.2)           # [nnz]
        attention = edge_softmax(block, logits)
        out = self.w(aggregate(block, attention, x_src))  # [n_dst, d]
        return out.relu() if self.activation else out


class GNNBase(Module):
    """L-layer GNN over sampled frontiers with a linear classifier head."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be at least 1")
        rng = rng or np.random.default_rng(0)
        self.layers = self._build_layers(in_dim, hidden_dim, num_layers, rng)
        self.head = Linear(hidden_dim, num_classes, rng=rng)
        self.num_layers = num_layers

    def _build_layers(self, in_dim, hidden_dim, num_layers, rng):  # pragma: no cover
        raise NotImplementedError

    def forward(self, features: Tensor, frontiers: list, blocks: list[Block]) -> Tensor:
        """Classify the seed nodes of a sampled block list.

        ``features`` holds vectors for the outermost frontier (all nodes);
        ``frontiers[l]`` is an index array selecting layer ``l``'s
        destination nodes from layer ``l``'s source nodes; and
        ``blocks[l]`` holds layer ``l``'s sampled edges (destination rows,
        source columns).
        """
        x = features
        for layer, dst_index, block in zip(self.layers, frontiers, blocks):
            x = layer(x, dst_index, block)
        return self.head(x)


class GraphSage(GNNBase):
    def _build_layers(self, in_dim, hidden_dim, num_layers, rng):
        layers = []
        dims = [in_dim] + [hidden_dim] * num_layers
        for i in range(num_layers):
            layers.append(SageLayer(dims[i], dims[i + 1], rng=rng))
        return layers


class GAT(GNNBase):
    def _build_layers(self, in_dim, hidden_dim, num_layers, rng):
        layers = []
        dims = [in_dim] + [hidden_dim] * num_layers
        for i in range(num_layers):
            layers.append(GATLayer(dims[i], dims[i + 1], rng=rng))
        return layers
