"""Numpy-backed reverse-mode autograd engine and nn building blocks."""

from . import functional
from .module import Embedding, LayerNorm, Linear, Module, Parameter
from .optim import Adam, Optimizer
from .tensor import Tensor, get_default_dtype

__all__ = [
    "Adam",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "Optimizer",
    "Parameter",
    "Tensor",
    "functional",
    "get_default_dtype",
]
