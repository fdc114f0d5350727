"""Dense reference for the sparse message-passing kernels (tests only).

This is the ``[n_dst, n_src]`` formulation the GNN layers used before
they moved to edge lists, composed from ``Tensor`` primitives: a
``-1e9`` bias on the non-edges, a row softmax, ``attention @ h_src`` for
GAT and ``mean_mat @ x_src`` for GraphSage.  It is quadratic in the
frontier and leaks ``exp(-60)`` into every masked entry, which is why it
lives here and not under ``src/``; the sparse path must agree with it up
to summation order.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softmax
from repro.nn.tensor import Tensor


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


def dense_gat(layer, x_src: Tensor, dst_index: np.ndarray, mask: np.ndarray) -> Tensor:
    """``GATLayer.forward`` over a dense adjacency mask."""
    h_src = layer.w(x_src)
    h_dst = layer.w(x_src[dst_index])
    e_dst = h_dst @ layer.a_dst
    e_src = (h_src @ layer.a_src).reshape(1, -1)
    attention = masked_softmax((e_dst + e_src).leaky_relu(0.2), mask, axis=1)
    out = attention @ h_src
    return out.relu() if layer.activation else out


def dense_sage(layer, x_src: Tensor, dst_index: np.ndarray, mean_mat: np.ndarray) -> Tensor:
    """``SageLayer.forward`` over a dense row-normalized mean matrix."""
    out = layer.w_self(x_src[dst_index]) + layer.w_neigh(Tensor(mean_mat) @ x_src)
    return out.relu() if layer.activation else out
