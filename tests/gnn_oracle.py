"""Dense reference for the sparse message-passing kernels (tests only).

This is the ``[n_dst, n_src]`` formulation the GNN layers used before
they moved to edge lists: a row softmax with the non-edges masked out,
``attention @ h_src`` for GAT and ``mean_mat @ x_src`` for GraphSage.
It is quadratic in the frontier, which is why it lives here and not
under ``src/``; the sparse path must agree with it up to rounding.

GraphSage's reference is composed from ``Tensor`` primitives.  GAT's is
written out in float64, forward and backward: its attention gradient is
a difference of per-edge terms as large as ``|h_src|^2`` times the
upstream gradient, so two float32 evaluations of it can part by more
than 1e-5 of a unit-scale result even when each is within rounding of
the exact value.  Against float64 the comparison measures the sparse
kernel's own rounding alone.
"""

from __future__ import annotations

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
