"""Minimal numpy autograd engine and neural-network toolkit.

Stands in for PyTorch in this offline reproduction: reverse-mode autodiff
over float32 numpy arrays (:mod:`repro.nn.tensor`), layers and containers
(:mod:`repro.nn.layers`), optimizers with sparse-row support
(:mod:`repro.nn.optim`), the losses the paper's tasks need
(:mod:`repro.nn.losses`) and message passing over sampled edge lists
(:mod:`repro.nn.sparse`).  Gradients are exact and verified against
numerical differentiation in the test suite.
"""

from repro.nn.tensor import Tensor
from repro.nn import functional
from repro.nn.layers import (
    Module,
    Linear,
    ReLU,
    Sequential,
    MLP,
    CrossLayer,
)
from repro.nn.optim import Adam, RowAdagrad
from repro.nn.losses import (
    bce_with_logits,
    softmax_cross_entropy,
    logistic_ranking_loss,
)

__all__ = [
    "Tensor",
    "functional",
    "Module",
    "Linear",
    "ReLU",
    "Sequential",
    "MLP",
    "CrossLayer",
    "Adam",
    "RowAdagrad",
    "bce_with_logits",
    "softmax_cross_entropy",
    "logistic_ranking_loss",
]
