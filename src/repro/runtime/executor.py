"""Shared base for the two distributed MoE execution paradigms.

An executor owns the canonical model state of one MoE expert layer sharded
over an emulated cluster: a replicated gate and the canonical expert modules
with their home placement.  Subclasses implement ``run`` (the forward pass,
recording every emulated transfer in the :class:`~repro.runtime.comm.CommLog`)
and ``finish_backward`` (whatever gradient movement the paradigm needs after
``loss.backward()`` has produced gradients).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..models import Expert, TopKGate
from ..tensorlib import Tensor
from .comm import CommLog
from .layout import ExpertPlacement, RankLayout

__all__ = ["MoEExecutor"]


class MoEExecutor:
    """Distributed execution of one MoE expert layer (functional emulation)."""

    def __init__(
        self,
        hidden_dim: int,
        num_experts: int,
        top_k: int,
        layout: RankLayout,
        comm_log: Optional[CommLog] = None,
        ffn_mult: int = 4,
        dtype_bytes: int = 4,
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()
        self.hidden_dim = hidden_dim
        self.num_experts = num_experts
        self.top_k = top_k
        self.layout = layout
        self.placement = ExpertPlacement(num_experts, layout.world_size)
        self.comm_log = comm_log if comm_log is not None else CommLog(layout)
        self.ffn_mult = ffn_mult
        self.dtype_bytes = dtype_bytes
        self.gate = TopKGate(hidden_dim, num_experts, top_k, rng=rng)
        self.experts = [
            Expert(hidden_dim, mult=ffn_mult, rng=rng)
            for _ in range(num_experts)
        ]
        self.last_decisions = None

    # -- cost model for the comm log -------------------------------------------

    @property
    def token_bytes(self) -> float:
        """Wire size of one token activation (H elements)."""
        return float(self.hidden_dim * self.dtype_bytes)

    @property
    def expert_bytes(self) -> float:
        """Wire size of one expert's weights / gradients (8H^2 elements)."""
        return float(
            2 * self.hidden_dim * self.ffn_mult * self.hidden_dim
            * self.dtype_bytes
        )

    # -- state synchronization (for equivalence testing) ------------------------

    def export_state(self) -> Dict[str, np.ndarray]:
        state = {f"gate.{k}": v for k, v in self.gate.state_dict().items()}
        for index, expert in enumerate(self.experts):
            for key, value in expert.state_dict().items():
                state[f"expert{index}.{key}"] = value
        return state

    def import_state(self, state: Dict[str, np.ndarray]) -> None:
        gate_state = {
            key[len("gate."):]: value
            for key, value in state.items()
            if key.startswith("gate.")
        }
        self.gate.load_state_dict(gate_state)
        for index, expert in enumerate(self.experts):
            prefix = f"expert{index}."
            expert.load_state_dict(
                {
                    key[len(prefix):]: value
                    for key, value in state.items()
                    if key.startswith(prefix)
                }
            )

    def parameters(self):
        params = list(self.gate.parameters())
        for expert in self.experts:
            params.extend(expert.parameters())
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- paradigm interface ------------------------------------------------------

    def run(self, worker_tokens: List[Tensor]) -> List[Tensor]:
        """Forward one flat (N_r, H) token batch per worker."""
        raise NotImplementedError

    def finish_backward(self) -> None:
        """Perform paradigm-specific gradient movement after backward()."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------------

    def _route_all(self, worker_tokens: List[Tensor]):
        if len(worker_tokens) != self.layout.world_size:
            raise ValueError(
                f"expected {self.layout.world_size} worker batches, "
                f"got {len(worker_tokens)}"
            )
        decisions = [self.gate(tokens) for tokens in worker_tokens]
        self.last_decisions = decisions
        return decisions
