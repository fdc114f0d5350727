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

from repro.data.draws import _lemire_draws, _next_uint32s
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
        self._first_seen = np.empty(len(graph.indptr) - 1, dtype=np.int64)

    def sample(self, seeds: np.ndarray) -> SampledBlocks:
        """Expand ``seeds`` (distinct nodes) into an L-hop computation graph."""
        seeds = np.asarray(seeds, dtype=np.int64)
        # Build frontiers inside-out: layer L classifies the seeds.
        dst, frontiers, blocks = seeds, [], []
        for fanout in reversed(self.fanouts):
            dst, dst_index, block = self._sample_layer(dst, fanout)
            frontiers.insert(0, dst_index)
            blocks.insert(0, block)
        return SampledBlocks(input_nodes=dst, frontiers=frontiers, blocks=blocks, seeds=seeds)

    def _sample_layer(self, dst: np.ndarray, fanout: int) -> tuple[np.ndarray, np.ndarray, Block]:
        """One hop: the source frontier, ``dst``'s positions in it, the block."""
        indptr, neighbors = self.graph.indptr, self.graph.indices
        lo = indptr[dst]
        degrees = indptr[dst + 1] - lo
        # Each destination's neighbours are exactly what one
        # rng.choice(neighbors[lo:hi], min(fanout, deg), replace=False) per
        # row, in frontier order, would pick: the RNG stream (and so the
        # sampled graph) is a pinned contract.  The loop is the fallback.
        picks = _choice_positions(self._rng.bit_generator, degrees, fanout)
        if picks is None:
            picks = np.concatenate([np.empty(0, dtype=np.int64)] + [
                self._rng.choice(deg, size=min(fanout, deg), replace=False)
                for deg in degrees.tolist() if deg])
        rows = np.repeat(np.arange(len(dst)), np.clip(degrees, 1, fanout))
        chosen = dst[rows]  # an isolated destination keeps a self edge
        linked = degrees[rows] > 0
        chosen[linked] = neighbors[lo[rows[linked]] + picks]
        # Source frontier: destinations first, then new neighbors as first
        # seen.  Reversed stores leave each node's first index in
        # ``_first_seen`` (the last store wins); every slot read was just
        # written, so the scratch array needs no reset.
        nodes = np.concatenate([dst, chosen])
        self._first_seen[nodes[::-1]] = np.arange(len(nodes))[::-1]
        first = self._first_seen[nodes]
        is_first = first == np.arange(len(nodes))
        src = nodes[is_first]
        label = np.cumsum(is_first) - 1
        # from_edges keeps one edge where a multigraph picked a neighbor twice.
        block = Block.from_edges(len(dst), len(src), rows, label[first[len(dst):]],
                                 mean=self.mode == "mean")
        return src, label[first[:len(dst)]], block


# Past this degree numpy's choice(replace=False) may shuffle an arange of
# the whole population instead of running Floyd's algorithm.
_FLOYD_MAX_DEGREE = 10_000


def _choice_positions(bit_generator: np.random.BitGenerator, degrees: np.ndarray,
                      fanout: int) -> np.ndarray | None:
    """Positions ``Generator.choice(deg, min(fanout, deg), replace=False)``
    picks for every row with ``deg > 0``, concatenated in row order, drawn
    from ``bit_generator``'s stream as those calls in turn would draw them.

    For a population of at most 10,000, numpy's choice runs Floyd's
    algorithm — pick ``t`` of ``k`` draws ``v`` in ``[0, j]``, ``j = deg - k
    + t``, and takes ``j`` instead if ``v`` is already picked — then
    shuffles the picks: for ``i = k - 1 … 1`` it swaps pick ``i`` with a
    draw in ``[0, i]``.  Each draw is Lemire's bounded integer on one
    ``next_uint32`` word; a draw in ``[0, 0]`` takes no word.  Here every
    word of the layer comes from one call into a table of one step a row
    and one destination a column — ``fanout`` Floyd rows, then ``fanout -
    1`` shuffle rows, a bound of 0 where a destination draws nothing — and
    each Floyd step is one pass over its row, its picks replacing its
    draws.  The shuffle runs on the picks laid out destination after
    destination, a step swapping offsets ``dst * fanout + i`` and ``dst *
    fanout + draw``; where it draws nothing, ``i`` is clamped to 0 and the
    swap is of offset 0 with itself.  Returns ``None``, with the generator
    as it was, when a row's degree exceeds 10,000 or a draw would reject
    its word and need another.
    """
    if (degrees > _FLOYD_MAX_DEGREE).any():
        return None
    n = len(degrees)
    k = np.minimum(degrees, fanout)
    step = np.arange(fanout)[:, None]
    live = step < k                                  # pick t exists
    bounds = np.empty((2 * fanout - 1, n), dtype=np.int64)
    floyd_j, swap_i = bounds[:fanout], bounds[fanout:]
    np.add(degrees - k, step, out=floyd_j)           # pick t draws in [0, j]
    floyd_j *= live
    np.maximum(k - 1 - step[:-1], 0, out=swap_i)     # shuffle step s swaps pick i
    drawn = bounds > 0
    saved = bit_generator.state
    words = np.zeros(bounds.shape, dtype=np.uint32)
    # The choice calls draw a destination's steps in turn: fill column by column.
    words.T[drawn.T] = _next_uint32s(bit_generator, np.count_nonzero(drawn))
    draws = _lemire_draws(words, bounds)
    if draws is None:
        bit_generator.state = saved
        return None
    for t in range(1, fanout):  # Floyd: the picks replace their draws
        repeat = (draws[:t] == draws[t]).any(axis=0)
        np.copyto(draws[t], floyd_j[t], where=repeat)
    picks = draws[:fanout].T.ravel()
    swaps = np.empty((fanout - 1, 2, n), dtype=np.int64)
    row_start = np.arange(0, n * fanout, fanout)
    np.add(row_start, swap_i, out=swaps[:, 0])
    np.add(row_start, draws[fanout:], out=swaps[:, 1])
    for s in range(fanout - 1):
        picks[swaps[s]] = picks[swaps[s, ::-1]]
    return picks.reshape(n, fanout)[live.T]
