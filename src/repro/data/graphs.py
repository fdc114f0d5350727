"""Synthetic graphs for GNN node classification (Papers100M stand-in).

A stochastic-block-model graph with homophilous communities: nodes of the
same community connect preferentially, and the label *is* the community.
Message passing over learned node embeddings can therefore separate the
classes, giving the accuracy-vs-time curves of Figures 6(c) and 11.

Degrees are skewed by preferential intra-community attachment so the
neighbor-sampling access pattern (a few hubs in most batches, a long tail
of cold nodes) matches real citation graphs.
"""

from __future__ import annotations

import numpy as np

from repro.data.draws import Categorical


class GraphDataset:
    """SBM graph in CSR form with train/valid node splits.

    Parameters
    ----------
    num_nodes / num_classes:
        Graph size and community count (labels = communities).
    avg_degree:
        Mean degree.
    intra_fraction:
        Fraction of edges that stay inside a community (homophily level).
    hub_skew:
        Preferential-attachment strength within communities.
    """

    def __init__(
        self,
        num_nodes: int = 5000,
        num_classes: int = 8,
        avg_degree: int = 10,
        intra_fraction: float = 0.85,
        hub_skew: float = 0.8,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ValueError("need at least two classes")
        self.num_nodes = num_nodes
        self.num_classes = num_classes
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.labels = rng.integers(0, num_classes, num_nodes).astype(np.int64)
        members = [np.flatnonzero(self.labels == c) for c in range(num_classes)]
        for c in range(num_classes):
            if len(members[c]) == 0:
                members[c] = np.array([c % num_nodes])

        num_edges = num_nodes * avg_degree // 2
        src = rng.integers(0, num_nodes, num_edges)
        intra = rng.random(num_edges) < intra_fraction
        dst = np.empty(num_edges, dtype=np.int64)
        # Hub skew: within a community, pick targets by rank-weighted draw.
        for c in range(num_classes):
            pool = members[c]
            ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
            weights = 1.0 / np.power(ranks, hub_skew)
            weights /= weights.sum()
            mask = intra & (self.labels[src] == c)
            count = int(mask.sum())
            if count:
                dst[mask] = pool[Categorical(weights).draw(rng, count)]
        inter_mask = ~intra
        dst[inter_mask] = rng.integers(0, num_nodes, int(inter_mask.sum()))
        # A community with no intra edges from src side: fill leftovers.
        unfilled = intra & (dst == 0) & (src != 0)
        dst[unfilled] = rng.integers(0, num_nodes, int(unfilled.sum()))

        # Build symmetric CSR adjacency.
        all_src = np.concatenate([src, dst])
        all_dst = np.concatenate([dst, src])
        order = np.argsort(all_src, kind="stable")
        all_src, all_dst = all_src[order], all_dst[order]
        self.indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.add.at(self.indptr, all_src + 1, 1)
        self.indptr = np.cumsum(self.indptr)
        self.indices = all_dst.copy()

        node_order = rng.permutation(num_nodes)
        split = int(0.8 * num_nodes)
        self.train_nodes = node_order[:split]
        self.valid_nodes = node_order[split:]

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def seed_batches(self, num_batches: int, batch_size: int, seed: int = 1) -> list[np.ndarray]:
        """Deterministic schedule of training seed-node minibatches."""
        rng = np.random.default_rng((self.seed << 16) ^ seed)
        return [
            rng.choice(self.train_nodes, size=batch_size, replace=False)
            for _ in range(num_batches)
        ]
