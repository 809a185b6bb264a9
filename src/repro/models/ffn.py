"""Feed-forward networks: the dense FFN and the expert FFN.

An expert is exactly the paper's FFN: two Linear layers H -> 4H -> H with a
GELU in between (§5.1.3 sizes the expert as 8H^2 parameters from the two
weight matrices).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..tensorlib import Linear, Module, Tensor

__all__ = ["FeedForward", "Expert"]


class FeedForward(Module):
    """Dense transformer FFN: H -> mult*H -> H with GELU."""

    def __init__(
        self,
        hidden_dim: int,
        mult: int = 4,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.hidden_dim = hidden_dim
        self.fc1 = Linear(hidden_dim, mult * hidden_dim, rng=rng)
        self.fc2 = Linear(mult * hidden_dim, hidden_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).gelu())


class Expert(FeedForward):
    """An expert FFN whose weights and gradients move between workers.

    The data-centric paradigm physically moves expert weights between
    workers; :meth:`refresh_from` copies them into a replica, and
    :meth:`collect_gradients` extracts the gradient payload that is
    shipped back to the expert's home worker.
    """

    def refresh_from(self, source: "Expert") -> None:
        """Copy ``source``'s weights into this expert's existing buffers.

        The zero-allocation sibling of
        ``load_state_dict(source.state_dict())`` used by the data-centric
        replica pool: parameter arrays are reused
        across iterations and stale replica gradients are dropped.
        """
        own = dict(self.named_parameters())
        for name, param in source.named_parameters():
            np.copyto(own[name].data, param.data)
            own[name].grad = None

    def collect_gradients(self) -> Dict[str, np.ndarray]:
        grads = {}
        for name, param in self.named_parameters():
            grads[name] = (
                param.grad.copy()
                if param.grad is not None
                else np.zeros_like(param.data)
            )
        return grads

    def apply_gradients(self, grads: Dict[str, np.ndarray]) -> None:
        """Accumulate an external gradient payload into local ``.grad``."""
        own = dict(self.named_parameters())
        if set(grads) != set(own):
            raise KeyError("gradient payload does not match expert parameters")
        for name, param in own.items():
            if param.grad is None:
                param.grad = grads[name].copy()
            else:
                param.grad += grads[name]
