"""Dense reference for the sparse message-passing kernels (tests only).

This is the ``[n_dst, n_src]`` formulation the GNN layers used before
they moved to edge lists: a row softmax with the non-edges masked out,
``attention @ h_src`` for GAT and ``mean_mat @ x_src`` for GraphSage.
It is quadratic in the frontier, which is why it lives here and not
under ``src/``; the sparse path must agree with it up to rounding.

The neighbour sampler's reference sits here too: one
``rng.choice`` per destination, the source frontier relabelled with
``np.unique``, the CSR built by ``np.unique`` over ``(row, column)``
pairs and each rank grouping stored with its summed-into and taken-from
arrays already permuted, as blocks once kept them.

GraphSage's reference is composed from ``Tensor`` primitives.  GAT's is
written out in float64, forward and backward: its attention gradient is
a difference of per-edge terms as large as ``|h_src|^2`` times the
upstream gradient, so two float32 evaluations of it can part by more
than 1e-5 of a unit-scale result even when each is within rounding of
the exact value.  Against float64 the comparison measures the sparse
kernel's own rounding alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.nn.functional import softmax
from repro.nn.sparse import Block
from repro.nn.tensor import Tensor


def from_dense(matrix: np.ndarray) -> Block:
    """Block of a dense ``[n_dst, n_src]`` boolean mask, or of a weight
    matrix whose non-zero entries are the edges (the inverse of
    :func:`to_dense`)."""
    rows, cols = np.nonzero(matrix)
    block = Block.from_edges(*matrix.shape, rows, cols)
    if matrix.dtype != bool:
        block.weights = matrix[rows, cols].astype(np.float32)
    return block


class RankGroups(NamedTuple):
    """Edges in rank order within their target: ``into`` (the row, or
    column, an edge is summed into) and ``take`` (the one its message
    comes from) are permuted by ``order``; group ``k`` is
    ``bounds[k]:bounds[k + 1]``."""

    order: np.ndarray
    into: np.ndarray
    take: np.ndarray
    bounds: list[int]


def rank_groups(into: np.ndarray, take: np.ndarray, size: int) -> RankGroups:
    """Order edges by their rank among the edges summed into the same target."""
    by_target = np.argsort(into, kind="stable")
    counts = np.bincount(into, minlength=size)
    rank = np.empty_like(by_target)
    rank[by_target] = np.arange(len(into)) - np.repeat(np.cumsum(counts) - counts, counts)
    order = np.argsort(rank, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(rank))]).tolist()
    return RankGroups(order, into[order], take[order], bounds)


def relabel(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``nodes``' distinct values in first-seen order, and each node's
    position among them."""
    _, first, inverse = np.unique(nodes, return_index=True, return_inverse=True)
    return nodes[np.sort(first)], np.argsort(np.argsort(first))[inverse]


def choice_loop_layer(graph, rng: np.random.Generator, dst: np.ndarray, fanout: int):
    """One sampled hop as one ``rng.choice(replace=False)`` per destination
    (an isolated one keeps a self edge): the source frontier, ``dst``'s
    positions in it, and the edge list ``(rows, cols)`` as drawn, a
    neighbour picked twice listed twice."""
    picked = []
    for node, lo, hi in zip(dst.tolist(), graph.indptr[dst].tolist(),
                            graph.indptr[dst + 1].tolist()):
        if lo == hi:
            picked.append(np.array([node], dtype=np.int64))
        else:
            picked.append(rng.choice(graph.indices[lo:hi], size=min(fanout, hi - lo),
                                     replace=False))
    rows = np.repeat(np.arange(len(dst)), [len(chosen) for chosen in picked])
    src, position = relabel(np.concatenate([dst] + picked))
    return src, position[:len(dst)], rows, position[len(dst):]


def csr(n_dst: int, rows: np.ndarray, cols: np.ndarray, mean: bool):
    """``(indptr, indices, rows, weights)`` of an edge list, an edge listed
    twice kept once, columns ascending in a row; ``mean`` weights each
    edge ``1/deg`` of its row."""
    rows, cols = np.unique(np.stack([rows, cols], axis=1), axis=0).T
    degree = np.bincount(rows, minlength=n_dst)
    weights = np.float32(1.0) / degree[rows].astype(np.float32) if mean else None
    return np.concatenate([[0], np.cumsum(degree)]), cols, rows, weights


def to_dense(block) -> np.ndarray:
    """The block's boolean mask, or its weight matrix when it has weights."""
    if block.weights is None:
        dense = np.zeros((block.n_dst, block.n_src), dtype=bool)
        dense[block.rows, block.indices] = True
    else:
        dense = np.zeros((block.n_dst, block.n_src), dtype=np.float32)
        dense[block.rows, block.indices] = block.weights
    return dense


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over the entries where ``mask`` is true (−1e9 elsewhere)."""
    bias = np.where(mask, 0.0, -1e9).astype(np.float32)
    return softmax(x + Tensor(bias), axis=axis)


def dense_gat(layer, x_src: np.ndarray, dst_index: np.ndarray, mask: np.ndarray,
              upstream: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """``GATLayer.forward`` over a dense adjacency mask, in float64, and the
    gradients of ``(out * upstream).sum()``: input first, then ``w``,
    ``a_src``, ``a_dst`` (the order of ``layer.parameters()``)."""
    w, a_src, a_dst = (p.data.astype(np.float64) for p in (layer.w.weight, layer.a_src, layer.a_dst))
    x = x_src.astype(np.float64)
    h_src = x @ w
    scores = h_src[dst_index] @ a_dst + (h_src @ a_src).T
    slope = np.where(scores > 0, 1.0, 0.2)
    logits = np.where(mask, scores * slope, -np.inf)
    attention = np.exp(logits - logits.max(axis=1, keepdims=True))
    attention /= attention.sum(axis=1, keepdims=True)
    pre = attention @ h_src
    out, g_pre = (np.maximum(pre, 0.0), upstream * (pre > 0)) if layer.activation else (pre, upstream)
    g_attention = g_pre @ h_src.T
    g_scores = attention * (g_attention - (attention * g_attention).sum(axis=1, keepdims=True)) * slope
    g_e_src = g_scores.sum(axis=0).reshape(-1, 1)
    g_e_dst = g_scores.sum(axis=1).reshape(-1, 1)
    g_h = attention.T @ g_pre + g_e_src @ a_src.T
    g_h[dst_index] += g_e_dst @ a_dst.T  # destinations are distinct sources
    return out, [g_h @ w.T, x.T @ g_h, h_src.T @ g_e_src, h_src[dst_index].T @ g_e_dst]


def dense_sage(layer, x_src: Tensor, dst_index: np.ndarray, mean_mat: np.ndarray) -> Tensor:
    """``SageLayer.forward`` over a dense row-normalized mean matrix."""
    out = layer.w_self(x_src[dst_index]) + layer.w_neigh(Tensor(mean_mat) @ x_src)
    return out.relu() if layer.activation else out
