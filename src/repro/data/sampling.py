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
    word of the layer comes from one ``random_raw`` call, Floyd's picks run
    as ≤ ``fanout`` passes over all rows and the shuffle as ≤ ``fanout - 1``.
    Returns ``None``, with the generator as it was, when a row's degree
    exceeds 10,000 or a draw would reject its word and need another.
    """
    if (degrees > _FLOYD_MAX_DEGREE).any():
        return None
    k = np.minimum(degrees, fanout)[:, None]
    step = np.arange(fanout)
    floyd_j = degrees[:, None] - k + step            # pick t draws in [0, j]
    swap_i = k - 1 - step[:-1]                       # shuffle step s swaps pick i
    bounds = np.concatenate([floyd_j, swap_i], axis=1)
    drawn = np.concatenate([(step < k) & (floyd_j > 0), swap_i > 0], axis=1)
    saved = bit_generator.state
    values = _lemire_draws(_next_uint32s(bit_generator, int(drawn.sum())), bounds[drawn])
    if values is None:
        bit_generator.state = saved
        return None
    draws = np.zeros(bounds.shape, dtype=np.int64)
    draws[drawn] = values
    picks = np.zeros((len(degrees), fanout), dtype=np.int64)
    for t in range(fanout):
        repeat = (picks[:, :t] == draws[:, t, None]).any(axis=1)
        picks[:, t] = np.where(repeat, floyd_j[:, t], draws[:, t])
    for s in range(fanout - 1):
        live = np.flatnonzero(drawn[:, fanout + s])
        i, j = swap_i[live, s], draws[live, fanout + s]
        picks[live, i], picks[live, j] = picks[live, j], picks[live, i]
    return picks[step < k]


def _next_uint32s(bit_generator: np.random.BitGenerator, n: int) -> np.ndarray:
    """The next ``n`` words PCG64's ``next_uint32`` returns, as ``uint64``,
    leaving the generator where ``n`` calls would.

    ``next_uint32`` returns the buffered half-word if there is one, else
    the low half of a fresh 64-bit output and buffers the high half.  Once
    the buffer is spent numpy clears ``has_uint32`` but keeps the spent
    half in ``uinteger``, so the state written back does too.
    """
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    state = bit_generator.state
    buffered = state["has_uint32"]
    raw = bit_generator.random_raw((n - buffered + 1) // 2)
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
    words = np.concatenate([np.full(buffered, state["uinteger"], dtype=np.uint64), halves])
    state = bit_generator.state
    state["has_uint32"] = (n - buffered) % 2
    if len(raw):
        state["uinteger"] = int(raw[-1] >> 32)
    bit_generator.state = state
    return words[:n]


def _lemire_draws(words: np.ndarray, bounds: np.ndarray) -> np.ndarray | None:
    """Lemire's bounded integers in ``[0, bound]``, one word each, as numpy's
    ``random_bounded_uint64`` computes them from ``next_uint32`` words;
    ``None`` if any word falls under its rejection threshold (numpy would
    draw another word for it)."""
    span = bounds.astype(np.uint64) + 1
    scaled = words.astype(np.uint64) * span
    threshold = (2**32 - span) % span
    if ((scaled & 0xFFFFFFFF) < threshold).any():
        return None
    return (scaled >> 32).astype(np.int64)
