"""Layers and containers.

``Module`` provides parameter discovery (recursing through attributes and
lists), train/eval flags, and FLOP estimates the trainers charge to the
simulated GPU.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.nn.tensor import Tensor


class Module:
    """Base class: parameter registry + train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> Iterator[Tensor]:
        seen: set[int] = set()
        for value in self.__dict__.values():
            yield from _parameters_of(value, seen)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in self.__dict__.values():
            for module in _modules_of(value):
                module._set_mode(training)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def flops_per_sample(self) -> float:
        """Approximate forward FLOPs per input row (charged 3× for fwd+bwd)."""
        return sum(module.flops_per_sample() for module in self._children())

    def _children(self) -> list["Module"]:
        children: list[Module] = []
        for value in self.__dict__.values():
            children.extend(_modules_of(value))
        return children

    def state_dict(self) -> list[np.ndarray]:
        return [param.data.copy() for param in self.parameters()]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        params = list(self.parameters())
        if len(params) != len(state):
            raise ValueError("state size mismatch")
        for param, array in zip(params, state):
            param.data = array.astype(np.float32).copy()


def _parameters_of(value, seen: set[int]) -> Iterator[Tensor]:
    if isinstance(value, Tensor) and value.requires_grad and id(value) not in seen:
        seen.add(id(value))
        yield value
    elif isinstance(value, Module):
        for param in value.parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _parameters_of(item, seen)


def _modules_of(value) -> Iterator[Module]:
    if isinstance(value, Module):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _modules_of(item)


class Linear(Module):
    """Affine layer ``y = x W + b`` with Kaiming-uniform init."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        bound = float(np.sqrt(6.0 / in_features))
        self.weight = Tensor(
            rng.uniform(-bound, bound, (in_features, out_features)), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def flops_per_sample(self) -> float:
        return 2.0 * self.in_features * self.out_features


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def flops_per_sample(self) -> float:
        return 0.0


class Sequential(Module):
    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x


class MLP(Module):
    """Fully connected feed-forward stack (the paper's FFNN)."""

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator | None = None,
        final_activation: bool = False,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        modules: list[Module] = []
        for i in range(len(sizes) - 1):
            modules.append(Linear(sizes[i], sizes[i + 1], rng=rng))
            if i < len(sizes) - 2 or final_activation:
                modules.append(ReLU())
        self.stack = Sequential(*modules)

    def forward(self, x: Tensor) -> Tensor:
        return self.stack(x)


class CrossLayer(Module):
    """One DCN cross layer: ``x_{l+1} = x0 · (x_l w) + b + x_l``.

    Wang et al., "Deep & Cross Network for Ad Click Predictions" (2017).
    """

    def __init__(self, dim: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        bound = float(np.sqrt(1.0 / dim))
        self.weight = Tensor(rng.uniform(-bound, bound, (dim, 1)), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)
        self.dim = dim

    def forward(self, x0: Tensor, xl: Tensor) -> Tensor:
        gate = xl @ self.weight  # [batch, 1]
        return x0 * gate + self.bias + xl

    def flops_per_sample(self) -> float:
        return 4.0 * self.dim
