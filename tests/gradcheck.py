"""Finite-difference gradient checking for the autograd engine."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensorlib import Tensor

__all__ = ["numeric_gradient", "gradcheck"]


def numeric_gradient(
    fn: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(inputs)`` w.r.t. one input."""
    target = inputs[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(inputs).item()
        flat[i] = original - eps
        lower = fn(inputs).item()
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


def gradcheck(
    fn: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-6,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> bool:
    """Compare autograd gradients against finite differences.

    ``fn`` must return a scalar Tensor.  Raises AssertionError with a
    diagnostic message on mismatch; returns True on success.
    """
    for tensor in inputs:
        tensor.zero_grad()
    output = fn(inputs)
    if output.size != 1:
        raise ValueError("gradcheck requires a scalar-valued function")
    output.backward()
    for index, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        expected = numeric_gradient(fn, inputs, index, eps=eps)
        actual = tensor.grad if tensor.grad is not None else np.zeros_like(expected)
        if not np.allclose(actual, expected, atol=atol, rtol=rtol):
            worst = np.abs(actual - expected).max()
            raise AssertionError(
                f"gradient mismatch on input {index}: max abs err {worst:.3e}"
            )
    return True
