"""Optimizers over tensorlib parameters."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .tensor import Tensor

__all__ = ["Optimizer", "Adam", "global_grad_norm"]


def global_grad_norm(parameters: Iterable[Tensor]) -> float:
    """Global L2 norm over all present gradients.

    Uses a flat dot product per parameter instead of materializing the
    squared arrays; parameters without gradients are skipped.
    """
    total = 0.0
    for param in parameters:
        if param.grad is not None:
            flat = param.grad.ravel()
            total += float(np.dot(flat, flat))
    return float(np.sqrt(total))


class Optimizer:
    def __init__(self, parameters: Iterable[Tensor]):
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    def __init__(
        self,
        parameters,
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        bias1 = 1 - self.beta1**self._step
        bias2 = 1 - self.beta2**self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            m *= self.beta1
            m += (1 - self.beta1) * param.grad
            v *= self.beta2
            v += (1 - self.beta2) * (param.grad * param.grad)
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
