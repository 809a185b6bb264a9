"""Composite neural-network functions built on the Tensor ops."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "softmax",
    "cross_entropy",
    "layer_norm",
    "linear",
    "attention_scores_mask",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    A single fused graph node: the composite sub/exp/sum/div chain costs
    five nodes and as many full-size temporaries per call, and softmax sits
    on the attention and gate hot paths.
    """
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    out_data = shifted

    def backward(grad):
        if not x.requires_grad:
            return
        # d/dx = s * (g - sum(g * s)), built without mutating captures.
        gx = grad * out_data
        gx -= out_data * gx.sum(axis=axis, keepdims=True)
        x._accumulate_owned(gx)

    return x._make(out_data, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log likelihood of integer ``targets``.

    ``logits`` has shape (N, classes); ``targets`` shape (N,).  Fused into
    one graph node with the classic ``(softmax - onehot) / N`` backward:
    a composite log-softmax/getitem/mean chain allocates several
    (N, classes) temporaries and a scatter-add per call on the largest
    arrays in the model (the lm-head logits).
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects 2-d logits")
    if targets.shape != (logits.shape[0],):
        raise ValueError("targets must be 1-d and match logits rows")
    rows = np.arange(logits.shape[0])
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sum_exps = exps.sum(axis=1, keepdims=True)
    log_probs_picked = shifted[rows, targets] - np.log(sum_exps[:, 0])
    out_data = np.asarray(-log_probs_picked.mean())

    def backward(grad):
        if not logits.requires_grad:
            return
        gx = exps / sum_exps
        gx[rows, targets] -= 1.0
        gx *= grad / logits.shape[0]
        logits._accumulate_owned(gx)

    return logits._make(out_data, (logits,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last dimension.

    One fused node (the composite form is ~9 nodes per call); backward is
    the standard ``inv * (g - mean(g) - xhat * mean(g * xhat))`` with the
    affine grads reduced over all leading dims.
    """
    data = x.data
    mean = data.mean(axis=-1, keepdims=True)
    centered = data - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    var += eps
    inv = 1.0 / np.sqrt(var)
    centered *= inv
    xhat = centered
    out_data = xhat * weight.data
    out_data += bias.data

    def backward(grad):
        dim = data.shape[-1]
        if weight.requires_grad:
            weight._accumulate_owned(
                (grad * xhat).reshape(-1, dim).sum(axis=0)
            )
        if bias.requires_grad:
            bias._accumulate_owned(grad.reshape(-1, dim).sum(axis=0))
        if x.requires_grad:
            gx = grad * weight.data
            gm = gx.mean(axis=-1, keepdims=True)
            gxhat = (gx * xhat).mean(axis=-1, keepdims=True)
            gx -= gm
            gx -= xhat * gxhat
            gx *= inv
            x._accumulate_owned(gx)

    return x._make(out_data, (x, weight, bias), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor = None) -> Tensor:
    """Affine map ``x @ weight + bias`` with weight shape (in, out).

    Fused addmm: the bias lands in the GEMM output buffer (no extra add
    node or full-size grad copy between the add and the matmul), inputs of
    any leading shape run as one flat GEMM, and the weight grad is a
    single (in, rows) @ (rows, out) product.
    """
    if bias is None:
        return x @ weight
    data = x.data
    flat = data.reshape(-1, data.shape[-1])
    out_data = flat @ weight.data
    out_data += bias.data
    if data.ndim != 2:
        out_data = out_data.reshape(data.shape[:-1] + (weight.shape[-1],))

    def backward(grad):
        grad_flat = grad.reshape(-1, grad.shape[-1])
        if x.requires_grad:
            x._accumulate_owned((grad_flat @ weight.data.T).reshape(data.shape))
        if weight.requires_grad:
            weight._accumulate_owned(flat.T @ grad_flat)
        if bias.requires_grad:
            bias._accumulate_owned(grad_flat.sum(axis=0))

    return x._make(out_data, (x, weight, bias), backward)


def attention_scores_mask(seq_len: int, causal: bool) -> np.ndarray:
    """Additive attention mask: 0 where allowed, -1e9 where masked."""
    if not causal:
        return np.zeros((seq_len, seq_len))
    mask = np.triu(np.ones((seq_len, seq_len)), k=1) * -1e9
    return mask
