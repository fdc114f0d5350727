"""Functional ops composed from Tensor primitives."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import Tensor


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis`` with gradient routing back to each input."""
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack along a new ``axis``."""
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def logsigmoid(x: Tensor) -> Tensor:
    """log(sigmoid(x)) computed stably via softplus."""
    # log sigmoid(x) = -softplus(-x) = -(max(-x,0) + log1p(exp(-| -x |)))
    data = -np.maximum(-x.data, 0.0) - np.log1p(np.exp(-np.abs(x.data)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60, 60)))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - sig), owned=True)

    return Tensor._make(data.astype(np.float32), (x,), backward)
