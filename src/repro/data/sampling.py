"""Minibatch samplers: GNN neighborhoods and KGE negatives.

The neighbor sampler produces the frontier/block structure
:class:`~repro.models.gnn.GNNBase` consumes: per layer, an index array
selecting destination nodes inside the source frontier, and one CSR
:class:`~repro.nn.sparse.Block` of sampled edges (with ``1/deg`` edge
weights for GraphSage's mean, without for GAT's attention).  Blocks are
built with array operations straight from the sampled edge list; no
``[n_dst, n_src]`` matrix exists at any point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.graphs import GraphDataset
from repro.nn.sparse import Block


@dataclass
class SampledBlocks:
    """L-hop sampled computation graph for one seed minibatch."""

    input_nodes: np.ndarray        # outermost frontier (all nodes to fetch)
    frontiers: list[np.ndarray]    # per layer: dst index into the src frontier
    blocks: list[Block]            # per layer: sampled edges, dst rows x src columns
    seeds: np.ndarray              # the classified nodes (innermost frontier)


class NeighborSampler:
    """Uniform fanout neighbor sampling (GraphSage-style).

    Parameters
    ----------
    graph:
        CSR graph.
    fanouts:
        Neighbors sampled per layer, outermost last; ``len(fanouts)`` = L.
    mode:
        ``"mean"`` emits blocks with ``1/deg`` edge weights (``deg``
        counting a row's *distinct* sampled neighbors), ``"mask"`` emits
        unweighted blocks (for attention).
    """

    def __init__(self, graph: GraphDataset, fanouts: tuple[int, ...] = (5, 5),
                 mode: str = "mean", seed: int = 0) -> None:
        if mode not in ("mean", "mask"):
            raise ValueError(f"unknown mode {mode!r}")
        self.graph = graph
        self.fanouts = tuple(fanouts)
        self.mode = mode
        self._rng = np.random.default_rng(seed)

    def sample(self, seeds: np.ndarray) -> SampledBlocks:
        """Expand ``seeds`` (distinct nodes) into an L-hop computation graph."""
        seeds = np.asarray(seeds, dtype=np.int64)
        # Build frontiers inside-out: layer L classifies the seeds.
        dst = seeds
        frontiers: list[np.ndarray] = []
        blocks: list[Block] = []
        for fanout in reversed(self.fanouts):
            src, dst_index, block = self._sample_layer(dst, fanout)
            frontiers.insert(0, dst_index)
            blocks.insert(0, block)
            dst = src
        return SampledBlocks(input_nodes=dst, frontiers=frontiers, blocks=blocks, seeds=seeds)

    def _sample_layer(self, dst: np.ndarray, fanout: int) -> tuple[np.ndarray, np.ndarray, Block]:
        """One hop: the source frontier, ``dst``'s positions in it, the block."""
        indptr, neighbors = self.graph.indptr, self.graph.indices
        picked = []
        # One draw per destination, in frontier order: the RNG stream (and
        # so the sampled graph) is a pinned contract.
        for node, lo, hi in zip(dst.tolist(), indptr[dst].tolist(), indptr[dst + 1].tolist()):
            if lo == hi:
                picked.append(np.array([node], dtype=np.int64))  # isolated: self edge
            else:
                picked.append(self._rng.choice(neighbors[lo:hi], size=min(fanout, hi - lo),
                                               replace=False))
        rows = np.repeat(np.arange(len(dst)), [len(chosen) for chosen in picked])
        # Source frontier: destinations first, then new neighbors as first seen.
        nodes = np.concatenate([dst] + picked)
        _, first, inverse = np.unique(nodes, return_index=True, return_inverse=True)
        src = nodes[np.sort(first)]
        position = np.argsort(np.argsort(first))[inverse]
        # from_edges keeps one edge where a multigraph picked a neighbor twice.
        block = Block.from_edges(len(dst), len(src), rows, position[len(dst):],
                                 mean=self.mode == "mean")
        return src, position[:len(dst)], block


class NegativeSampler:
    """Uniform negative-tail sampler for KGE training."""

    def __init__(self, num_entities: int, negatives: int = 8, seed: int = 0) -> None:
        if num_entities <= 1:
            raise ValueError("need more than one entity")
        self.num_entities = num_entities
        self.negatives = negatives
        self._rng = np.random.default_rng(seed)

    def sample(self, batch_size: int) -> np.ndarray:
        return self._rng.integers(0, self.num_entities, (batch_size, self.negatives))
