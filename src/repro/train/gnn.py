"""GNN / node-classification trainer (DGL stand-in computation layer).

Batches are pre-sampled :class:`~repro.data.sampling.SampledBlocks`; node
feature vectors come from storage (the learned embedding table of large
featureless graphs like the eBay workloads), and gradients flow back to
exactly the sampled frontier.
"""

from __future__ import annotations

import numpy as np

from repro.data.graphs import GraphDataset
from repro.data.sampling import NeighborSampler, SampledBlocks
from repro.nn.losses import softmax_cross_entropy
from repro.train.loop import BaseTrainer, TrainerConfig
from repro.train.metrics import accuracy, auc


class GNNTrainer(BaseTrainer):
    """Node classification with GraphSage/GAT over sampled subgraphs.

    ``metric`` selects accuracy (Papers100M-style multi-class) or AUC
    (the binary, imbalanced eBay risk workloads).
    """

    def __init__(
        self,
        tables,
        network,
        gpu,
        config: TrainerConfig,
        graph: GraphDataset,
        sampler: NeighborSampler,
        metric: str = "accuracy",
    ) -> None:
        super().__init__(tables, network, gpu, config)
        if metric not in ("accuracy", "auc"):
            raise ValueError(f"unknown metric {metric!r}")
        self.graph = graph
        self.sampler = sampler
        self.metric = metric
        self.metric_name = "Accuracy" if metric == "accuracy" else "AUC"
        self._result.metric_name = self.metric_name
        rng = np.random.default_rng(config.seed ^ 0x6A11)
        eval_count = min(config.eval_size, len(graph.valid_nodes))
        eval_seeds = rng.choice(graph.valid_nodes, size=eval_count, replace=False)
        self._eval_blocks = sampler.sample(eval_seeds)

    def make_batches(self, num_batches: int, seed: int = 1) -> list[SampledBlocks]:
        """Pre-sample the training schedule (lookahead needs it anyway)."""
        seed_batches = self.graph.seed_batches(num_batches, self.config.batch_size, seed=seed)
        return [self.sampler.sample(seeds) for seeds in seed_batches]

    def embedding_keys(self, batch: SampledBlocks) -> np.ndarray:
        return batch.input_nodes

    def batch_flops(self, batch: SampledBlocks) -> float:
        # Message passing touches every frontier node, not just seeds.
        return len(batch.input_nodes) * self.network.flops_per_sample()

    def forward_backward(self, batch: SampledBlocks, unique_keys, rows):
        leaf = self.leaf(rows)
        features = leaf[self.gather_index(unique_keys, batch.input_nodes)]
        logits = self.network(features, batch.frontiers, batch.blocks)
        labels = self.graph.labels[batch.seeds]
        loss = softmax_cross_entropy(logits, labels)
        loss.backward()
        return float(loss.item()), leaf.grad

    def evaluate(self) -> float:
        sampled = self._eval_blocks
        from repro.nn.tensor import Tensor

        features = Tensor(self.tables.peek(sampled.input_nodes))
        self.network.eval()
        try:
            logits = self.network(features, sampled.frontiers, sampled.blocks)
        finally:
            self.network.train()
        labels = self.graph.labels[sampled.seeds]
        scores = logits.numpy()
        if self.metric == "accuracy":
            return accuracy(labels, scores.argmax(axis=1))
        return auc(labels, scores[:, 1] - scores[:, 0])
