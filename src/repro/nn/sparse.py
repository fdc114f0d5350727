"""Sparse message passing: a CSR block and the three kernels over it.

A sampled neighbourhood has a handful of edges per destination row, so
the GNN layers never build the ``[n_dst, n_src]`` matrix: they gather
per-edge logits, normalise them per row (:func:`edge_softmax`) and sum
weighted source rows per destination (:func:`aggregate`).

Sums over ``[nnz, d]`` arrays are *rank-grouped*: edges are ordered by
their rank inside their row (for the forward pass) or column (for the
gradient of the sources), every group touches each row at most once, and
one fancy-indexed ``+=`` per group does the work.  ``np.add.reduceat``
along axis 0 and ``np.add.at`` are several times slower at these shapes
(``docs/ARCHITECTURE.md``, "Sparse message passing").
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro._arrays import sorted_unique
from repro.nn.tensor import Tensor, _matmul, _scatter_rows


class EdgeGroups(NamedTuple):
    """Edges ordered by rank within their row (or column), for summing.

    ``order`` permutes CSR edge order into rank order; group ``k`` is
    ``order[bounds[k]:bounds[k + 1]]`` and names no row (or column) twice.
    """

    order: np.ndarray
    bounds: list[int]


def _rank_groups(rank: np.ndarray) -> EdgeGroups:
    """Group edges by ``rank``, each edge's rank among the edges summed
    into the same target, stably.  The ranks are sorted in the narrowest
    unsigned type that holds them: numpy radix-sorts 8- and 16-bit keys,
    several times faster than it merge-sorts ``int64``."""
    per_rank = np.bincount(rank)
    order = np.argsort(rank.astype(np.min_scalar_type(len(per_rank) - 1)), kind="stable")
    return EdgeGroups(order, np.concatenate([[0], np.cumsum(per_rank)]).tolist())


def _column_rank(cols: np.ndarray, n_src: int) -> np.ndarray:
    """Each edge's rank among the edges of its column, in edge order: its
    distance from the column's first edge (a group head) once the edges
    are sorted by column, in the narrowest type that holds ``n_src``."""
    by_col = np.argsort(cols.astype(np.min_scalar_type(n_src - 1)), kind="stable")
    in_order = cols[by_col]
    position = np.arange(len(cols))
    heads = np.empty(len(cols), dtype=bool)
    heads[0] = True
    np.not_equal(in_order[1:], in_order[:-1], out=heads[1:])
    rank = np.empty_like(by_col)
    rank[by_col] = position - np.maximum.accumulate(np.where(heads, position, 0))
    return rank


class Block:
    """One layer of a sampled computation graph, in CSR form.

    Row ``r`` (a destination) owns edges ``indptr[r]:indptr[r + 1]``;
    ``indices`` holds each edge's position in the source frontier, with
    no position twice in a row; ``weights`` are optional constant
    per-edge weights (``1/deg`` for mean aggregation).  Every row has at
    least one edge.  ``rows`` holds each edge's row.  The row- and
    column-rank groupings the kernels sum over keep only their rank
    order; the kernels gather the summed-into and taken-from rows or
    columns through it at use (``docs/ARCHITECTURE.md``, "Block layout").
    """

    def __init__(self, n_src: int, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray | None = None) -> None:
        counts = np.diff(indptr)
        if len(counts) == 0 or counts.min() < 1:
            raise ValueError("every destination row needs at least one edge")
        if indices.min() < 0 or indices.max() >= n_src:
            raise ValueError("edge points outside the source frontier")
        self.n_dst = len(counts)
        self.n_src = n_src
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.starts = indptr[:-1]
        self.rows = np.repeat(np.arange(self.n_dst), counts)
        # Rows are sorted: an edge's rank in its row is its offset from the row's start.
        self.by_row = _rank_groups(np.arange(len(indices)) - self.starts[self.rows])
        self.by_col = _rank_groups(_column_rank(indices, n_src))

    @classmethod
    def from_edges(cls, n_dst: int, n_src: int, rows: np.ndarray, cols: np.ndarray,
                   mean: bool = False) -> "Block":
        """Block of an edge list in any order; an edge listed twice counts
        once.  ``mean`` weights every edge ``1/deg`` of its row."""
        rows, cols = np.divmod(sorted_unique(rows * n_src + cols), n_src)
        degree = np.bincount(rows, minlength=n_dst)
        weights = np.float32(1.0) / degree[rows].astype(np.float32) if mean else None
        return cls(n_src, np.concatenate([[0], np.cumsum(degree)]), cols, weights)



def edge_logits(block: Block, h_src: Tensor, a_src: Tensor, a_dst: Tensor,
                dst_index: np.ndarray) -> Tensor:
    """GAT's per-edge scores ``e_dst[row] + e_src[col]``, ``[nnz]``, where
    ``e_src = h_src @ a_src`` and ``e_dst = (h_src @ a_dst)[dst_index]``.

    Destinations sit in the source frontier at ``dst_index``, so both
    attention vectors score every source row and the destinations are
    picked.  One node gives the bits of those three ops and the sum: the
    same products forward, and ``h_src``'s gradient added in place in the
    same order — ``g_dst @ a_dst.T`` on the destination rows only (the
    rest of ``g_dst`` is zero), then ``g_src @ a_src.T`` — each as a
    broadcast multiply, signs of zero included.  The attention vectors'
    gradients keep the full-height ``h_src.T @ g``: a product over the
    destination rows alone can sum in another order.
    """
    e_src = h_src.data @ a_src.data
    e_dst = h_src.data @ a_dst.data
    out = e_dst.reshape(-1)[dst_index][block.rows] + e_src.reshape(-1)[block.indices]

    def backward(grad: np.ndarray) -> None:
        per_dst = np.add.reduceat(grad, block.starts).reshape(-1, 1)
        g_dst = _scatter_rows(dst_index, per_dst, block.n_src)
        if h_src.requires_grad:
            if h_src.grad is None:
                h_src.grad = np.zeros_like(h_src.data)
            rows = sorted_unique(dst_index)
            h_src.grad[rows] += g_dst[rows] * a_dst.data.T
        if a_dst.requires_grad:
            a_dst._accumulate(h_src.data.T @ g_dst, owned=True)
        del per_dst, g_dst  # the [n_src, d] product below is the node's peak
        g_src = np.bincount(block.indices, weights=grad, minlength=block.n_src)
        g_src = g_src.astype(np.float32).reshape(-1, 1)
        if h_src.requires_grad:
            # Last, so its +0.0-started products turn every -0.0 left in
            # h_src.grad into +0.0, as the composed ops' full-height g_dst
            # product would.
            h_src.grad += _matmul(g_src, a_src.data.T)
        if a_src.requires_grad:
            a_src._accumulate(h_src.data.T @ g_src, owned=True)

    return Tensor._make(out, (h_src, a_src, a_dst), backward)


def edge_softmax(block: Block, logits: Tensor) -> Tensor:
    """Softmax of per-edge ``logits`` over the edges of each row."""
    shifted = logits.data - np.maximum.reduceat(logits.data, block.starts)[block.rows]
    exp = np.exp(np.clip(shifted, -60, 60))
    probs = exp / np.add.reduceat(exp, block.starts)[block.rows]

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            weighted = grad * probs
            row_sum = np.add.reduceat(weighted, block.starts)[block.rows]
            logits._accumulate(weighted - probs * row_sum, owned=True)

    return Tensor._make(probs, (logits,), backward)


def _weighted_sum(groups: EdgeGroups, into: np.ndarray, take: np.ndarray, size: int,
                  edge_weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out[into[e]] += edge_weights[e] * values[take[e]]``, one rank group at a time."""
    into, take, weights = into[groups.order], take[groups.order], edge_weights[groups.order]
    out = np.zeros((size, values.shape[1]), dtype=np.float32)
    for k, (lo, hi) in enumerate(zip(groups.bounds, groups.bounds[1:])):
        messages = np.take(values, take[lo:hi], axis=0)
        messages *= weights[lo:hi, None]
        if k == 0:
            # Most edges are rank 0 and ``out`` is still zero: storing skips
            # the read of a cold array (2 of a 13 ms gnn_dense step).
            out[into[lo:hi]] = messages
        else:
            out[into[lo:hi]] += messages  # exact: a group names no target twice
    return out


def aggregate(block: Block, edge_weights: Tensor | np.ndarray, h_src: Tensor) -> Tensor:
    """``out[r] = sum over r's edges of weight[e] * h_src[col[e]]``, ``[n_dst, d]``.

    Gradients reach ``edge_weights`` (a row-wise dot per edge) when it is
    a tensor that wants them, and ``h_src`` (scattered by column).
    """
    weights = edge_weights if isinstance(edge_weights, Tensor) else Tensor(edge_weights)
    out = _weighted_sum(block.by_row, block.rows, block.indices, block.n_dst,
                        weights.data, h_src.data)

    def backward(grad: np.ndarray) -> None:
        if weights.requires_grad:
            dots = np.einsum("ij,ij->i", grad[block.rows], h_src.data[block.indices])
            weights._accumulate(dots, owned=True)
        if h_src.requires_grad:
            scattered = _weighted_sum(block.by_col, block.indices, block.rows, block.n_src,
                                      weights.data, grad)
            h_src._accumulate(scattered, owned=True)

    return Tensor._make(out, (weights, h_src), backward)
