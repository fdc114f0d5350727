"""KGE / link-prediction trainer (DGL-KE stand-in computation layer)."""

from __future__ import annotations

import numpy as np

from repro._arrays import sorted_unique
from repro.data.kg import KGDataset, TripleBatch
from repro.nn.losses import logistic_ranking_loss
from repro.train.loop import BaseTrainer, TrainerConfig
from repro.train.metrics import hits_at_k


class KGETrainer(BaseTrainer):
    """Link prediction with DistMult/ComplEx; entities live in storage."""

    metric_name = "Hits@10"

    def __init__(self, tables, network, gpu, config: TrainerConfig, dataset: KGDataset) -> None:
        super().__init__(tables, network, gpu, config)
        self.dataset = dataset
        self._eval_batch = dataset.eval_batch(config.eval_size)

    def embedding_keys(self, batch: TripleBatch) -> np.ndarray:
        return np.concatenate(
            [batch.heads, batch.tails, batch.neg_tails.reshape(-1)]
        )

    def forward_backward(self, batch: TripleBatch, unique_keys, rows):
        leaf = self.leaf(rows)
        heads = leaf[self.gather_index(unique_keys, batch.heads)]
        tails = leaf[self.gather_index(unique_keys, batch.tails)]
        negs = leaf[self.gather_index(unique_keys, batch.neg_tails)]
        pos_scores, neg_scores = self.network(heads, batch.relations, tails, negs)
        loss = logistic_ranking_loss(pos_scores, neg_scores)
        loss.backward()
        return float(loss.item()), leaf.grad

    def evaluate(self) -> float:
        """Hits@10 of true tails against sampled candidates."""
        batch = self._eval_batch
        keys = np.concatenate([batch.heads, batch.tails, batch.neg_tails.reshape(-1)])
        unique = sorted_unique(keys)
        rows = self.tables.peek(unique)
        leaf = self.leaf(rows)
        heads = leaf[self.gather_index(unique, batch.heads)]
        tails = leaf[self.gather_index(unique, batch.tails)]
        negs = leaf[self.gather_index(unique, batch.neg_tails)]
        self.network.eval()
        try:
            pos_scores, neg_scores = self.network(heads, batch.relations, tails, negs)
        finally:
            self.network.train()
        return hits_at_k(pos_scores.numpy(), neg_scores.numpy(), k=10)
