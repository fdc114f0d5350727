"""Reverse-mode autodiff tensor over numpy arrays.

Dynamic tape: every operation records its parents and a backward closure;
``Tensor.backward()`` topologically sorts the graph and accumulates
gradients.  Broadcasting follows numpy semantics — gradients are summed
back over broadcast dimensions (``_unbroadcast``).

A gradient array has one owner: a backward closure hands over an array it
just computed and does not keep (``_accumulate(..., owned=True)``); a parent
copies what is shared or a view (``__add__``, ``sum``, ``reshape``,
``transpose``, ``concat``, ``stack``, the seed).  Indexing sums gradients back
with an exact scatter-add (``docs/ARCHITECTURE.md``, "The gradient path").

Only float32 is supported (embedding tables are float32 end-to-end).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(np.float32, copy=False)
    return np.asarray(value, dtype=np.float32)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after a broadcast op."""
    if grad.shape == shape:
        return grad
    # Sum leading dims numpy added on the left.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum dims that were broadcast from 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _scatter_rows(index: np.ndarray, grad: np.ndarray, rows: int) -> np.ndarray:
    """``np.add.at(zeros((rows, d)), index, grad)`` bit for bit, 3-4x sooner: each
    row's first occurrence is gathered into place, the remaining duplicates go
    through the 1-D ``np.add.at`` (one tight loop, occurrence order) on a flat index."""
    width = grad.shape[-1]
    grad = grad.reshape(-1, width)
    index = np.where(index < 0, index + rows, index).reshape(-1).astype(np.intp, copy=False)
    if not len(index):
        return np.zeros((rows, width), dtype=np.float32)
    order = np.arange(len(index))
    first = np.full(rows, -1)
    first[index[::-1]] = order[::-1]  # the last store wins: each row's first occurrence
    full = np.take(grad, first, axis=0)
    full[first < 0] = 0.0  # rows the index never names
    full += np.float32(0.0)  # as ``add.at``'s zeros do: a lone -0.0 becomes +0.0
    rest = np.flatnonzero(first[index] != order)
    if len(rest):
        flat = (index[rest, None] * width + np.arange(width)).reshape(-1)
        np.add.at(full.reshape(-1), flat, np.take(grad, rest, axis=0).reshape(-1))
    return full


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` bit for bit.  An inner dimension of 1 is a broadcast multiply:
    ``np.matmul`` leaves BLAS for a loop 2-3x slower there."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != 1:
        return a @ b
    out = a * b
    out += np.float32(0.0)  # as matmul's sums start at +0.0: a -0.0 becomes +0.0
    return out


class Tensor:
    """A node in the autodiff graph.

    Parameters
    ----------
    data:
        Array (converted to float32).
    requires_grad:
        Whether gradients flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data.item())  # any single-element shape

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = cls(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``.grad``.  ``owned``: the calling closure just computed
        ``grad`` and keeps no reference, so it (like a fresh sum) is kept, not copied."""
        reduced = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = reduced.astype(np.float32, copy=not owned and reduced is grad)
        else:
            self.grad += reduced

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data, owned=True)
            if other.requires_grad:
                other._accumulate(grad * self.data, owned=True)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data, owned=True)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data * other.data), owned=True)

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * np.power(self.data, exponent - 1), owned=True)

        return Tensor._make(np.power(self.data, exponent), (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_matmul(grad, np.swapaxes(other.data, -1, -2)), owned=True)
            if other.requires_grad:
                other._accumulate(_matmul(np.swapaxes(self.data, -1, -2), grad), owned=True)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(self.data.reshape(*shape), (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes = axes or tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            items = index if isinstance(index, tuple) else (index,)
            if isinstance(index, np.ndarray) and index.dtype.kind in "iu" and self.ndim == 2:
                full = _scatter_rows(index, grad, len(self.data))  # an embedding gather
            else:
                full = np.zeros_like(self.data)
                if all(type(item) in (slice, int, type(...)) for item in items):
                    full[index] += grad  # a basic index names no element twice
                else:
                    np.add.at(full, index, grad)
            self._accumulate(full, owned=True)

        return Tensor._make(self.data[index], (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = (self.data == expanded).astype(np.float32)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * g, owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(np.float32)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(self.data * mask, (self,), backward)

    def leaky_relu(self, slope: float = 0.2) -> "Tensor":
        mask = np.where(self.data > 0, 1.0, slope).astype(np.float32)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data * out_data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -60, 60))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data, owned=True)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (for scalar losses it is just 1.0).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor without grad")
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
