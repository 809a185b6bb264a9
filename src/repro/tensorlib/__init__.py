"""Numpy-backed reverse-mode autograd engine and nn building blocks."""

from . import functional
from .module import Embedding, LayerNorm, Linear, Module, Parameter, Sequential
from .optim import Adam, Optimizer, SGD
from .tensor import (
    Tensor,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
)

__all__ = [
    "Adam",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "Optimizer",
    "Parameter",
    "SGD",
    "Sequential",
    "Tensor",
    "functional",
    "get_default_dtype",
    "is_grad_enabled",
    "no_grad",
]
