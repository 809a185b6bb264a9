"""A small reverse-mode autograd engine over numpy arrays.

Implements just the operator set needed to train transformer/MoE models:
elementwise arithmetic, matmul, reductions, nonlinearities, reshaping,
gather/scatter (for MoE token dispatch) and a handful of composites.

Gradients are accumulated into ``Tensor.grad`` by :meth:`Tensor.backward`,
which topologically sorts the recorded graph.  Arrays are float64 by default
so the expert-centric / data-centric equivalence tests can use tight
tolerances.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "get_default_dtype",
]

Number = Union[int, float]

# Float precision of every Tensor: the EC/DC equivalence battery runs at
# tight tolerances.
_DTYPE = np.dtype(np.float64)


def get_default_dtype() -> np.dtype:
    """The dtype newly constructed Tensors use."""
    return _DTYPE


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        axis for axis, dim in enumerate(shape) if dim == 1 and grad.shape[axis] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An n-d array with optional gradient tracking."""

    # Tensors are allocated by the thousands per training step; __slots__
    # keeps them dict-free and makes attribute access cheaper.
    __slots__ = (
        "data",
        "requires_grad",
        "grad",
        "_parents",
        "_backward",
        "name",
        "_topo",
    )

    __array_priority__ = 100  # make numpy defer to our __radd__ etc.

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name
        self._topo: Optional[List["Tensor"]] = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def as_tensor(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # -- shape properties -------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        if self.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    # -- graph plumbing -----------------------------------------------------------

    def _make(self, data, parents, backward) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents,
                      _backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        # First contribution is a copy (one memory pass), later ones add in
        # place; `grad = grad + g` rebinding was a fresh allocation per edge.
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        # Same contract as _accumulate, but the caller guarantees ``grad``
        # is a freshly-allocated array this node may take ownership of
        # (never a view of an upstream gradient), skipping the first copy.
        if self.grad is None:
            if grad.dtype == self.data.dtype:
                self.grad = grad
            else:
                self.grad = grad.astype(self.data.dtype)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        The topological order is cached on the tensor, so calling
        ``backward`` repeatedly on the same graph (e.g. per-term backward
        in a trainer loop) skips the graph walk.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor without grad tracking")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        if self._topo is None:
            topo: List[Tensor] = []
            visited = set()

            def visit(node: "Tensor"):
                stack = [(node, False)]
                while stack:
                    current, expanded = stack.pop()
                    if expanded:
                        topo.append(current)
                        continue
                    if id(current) in visited:
                        continue
                    visited.add(id(current))
                    stack.append((current, True))
                    for parent in current._parents:
                        if parent.requires_grad and id(parent) not in visited:
                            stack.append((parent, False))

            visit(self)
            self._topo = topo
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(self._topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate_owned(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate_owned(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate_owned(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.as_tensor(other) * self ** -1.0

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate_owned(
                    grad * exponent * self.data ** (exponent - 1)
                )

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        if self.data.ndim > 2 and other.data.ndim == 2:
            # Linear-layer shape (..., K) @ (K, N): one flat GEMM instead of
            # the batched-matmul loop, and the weight grad collapses to a
            # single (K, rows) @ (rows, N) product with no broadcast sum.
            flat = self.data.reshape(-1, self.data.shape[-1])
            out_data = (flat @ other.data).reshape(
                self.data.shape[:-1] + (other.data.shape[-1],)
            )

            def backward(grad):
                grad_flat = grad.reshape(-1, grad.shape[-1])
                if self.requires_grad:
                    self._accumulate_owned(
                        (grad_flat @ other.data.T).reshape(self.data.shape)
                    )
                if other.requires_grad:
                    other._accumulate_owned(flat.T @ grad_flat)

            return self._make(out_data, (self, other), backward)

        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate_owned(_unbroadcast(grad_self, self.shape))
            if other.requires_grad:
                grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate_owned(_unbroadcast(grad_other, other.shape))

        return self._make(out_data, (self, other), backward)

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(grad, self.shape))
                return
            if not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= self.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            expanded = out_data
            g = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(out_data, axis=axis)
                g = np.expand_dims(grad, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate_owned(mask * g)

        return self._make(out_data, (self,), backward)

    # -- nonlinearities -------------------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_owned(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_owned(grad / self.data)

        return self._make(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        """tanh-approximated GELU (as used by BERT/GPT).

        The hottest nonlinearity in the runtime (dense FFNs and every
        expert), so both directions build their result in-place: two
        temporaries each instead of one allocation-and-pass per arithmetic
        step.
        """
        c = np.sqrt(2.0 / np.pi)
        x = self.data
        x2 = x * x  # reused by backward; x*x avoids the slow pow() ufunc
        t = x2 * 0.044715
        t *= x
        t += x
        t *= c
        np.tanh(t, out=t)  # t = tanh(c * (x + 0.044715 x^3))
        out_data = 1.0 + t
        out_data *= x
        out_data *= 0.5

        def backward(grad):
            if not self.requires_grad:
                return
            # d/dx = (1 + t)/2 + x/2 (1 - t^2) * c (1 + 3*0.044715 x^2)
            d_inner = x2 * (3 * 0.044715)
            d_inner += 1.0
            d_inner *= c
            d = t * t
            np.subtract(1.0, d, out=d)
            d *= d_inner
            d *= x
            d += t
            d += 1.0
            d *= 0.5
            d *= grad
            self._accumulate_owned(d)

        return self._make(out_data, (self,), backward)

    # -- shaping ------------------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate_owned(full)

        return self._make(out_data, (self,), backward)

    def row_slice(self, start: int, stop: int) -> "Tensor":
        """Contiguous leading-axis slice ``self[start:stop]``.

        Unlike ``__getitem__``, the backward pass adds straight into the
        ``[start:stop]`` band of the preallocated gradient instead of
        scatter-adding through a full-size temporary — the cheap segment
        primitive the sorted MoE dispatch path leans on.
        """
        out_data = self.data[start:stop]

        def backward(grad):
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                self.grad[start:stop] += grad

        return self._make(out_data, (self,), backward)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.as_tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

        def backward(grad):
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(slicer)])

        requires = any(t.requires_grad for t in tensors)
        if not requires:
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=True, _parents=tuple(tensors),
                      _backward=backward)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"
