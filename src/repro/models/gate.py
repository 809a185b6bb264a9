"""Top-K gating for MoE blocks.

The gate assigns each token to its ``top_k`` highest-probability experts and
produces renormalized combine weights.  Routing decisions are returned as
plain numpy index arrays (they parameterize *communication*, not gradients),
while combine weights stay in the autograd graph so the gate learns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..domains import NON_NEGATIVE, POSITIVE
from ..tensorlib import Linear, Module, Tensor
from .dispatch import DispatchPlan

__all__ = ["GateDecision", "TopKGate"]


@dataclass
class GateDecision:
    """Routing decision for a flat batch of N tokens.

    Attributes:
        expert_indices: (N, k) int array; slot j of token i goes to expert
            ``expert_indices[i, j]``.
        combine_weights: (N, k) Tensor of renormalized gate weights
            (rows sum to 1), differentiable w.r.t. the gate projection.
        probs: (N, num_experts) Tensor of full softmax probabilities.
        aux_loss: scalar Tensor — Switch-style load-balancing loss.
    """

    expert_indices: np.ndarray
    combine_weights: Tensor
    probs: Tensor
    aux_loss: Tensor
    _plan: Optional[DispatchPlan] = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_tokens(self) -> int:
        return self.expert_indices.shape[0]

    @property
    def top_k(self) -> int:
        return self.expert_indices.shape[1]

    @property
    def num_experts(self) -> int:
        return self.probs.shape[1]

    def dispatch_plan(self) -> DispatchPlan:
        """Sorted segment layout of this decision (computed once, cached)."""
        if self._plan is None:
            self._plan = DispatchPlan(self.expert_indices, self.num_experts)
        return self._plan


class TopKGate(Module):
    """Learned softmax gate with deterministic top-k selection.

    Optional behaviours matching common MoE stacks:

    * ``noise_std > 0`` adds Gaussian noise to the routing logits during
      selection (Shazeer et al.'s noisy top-k, encouraging exploration).
      The noise is drawn from ``noise_rng`` so distributed replicas can
      reproduce identical routing; it perturbs only the *selection*, not
      the differentiable combine weights.
    * ``capacity_factor`` caps tokens per expert at
      ``ceil(capacity_factor * N * k / num_experts)`` (GShard/Tutel-style);
      overflowing token-slots are dropped from routing (their combine
      weight mass is renormalized over the surviving slots).
    """

    def __init__(
        self,
        hidden_dim: int,
        num_experts: int,
        top_k: int,
        rng: Optional[np.random.Generator] = None,
        noise_std: float = 0.0,
        capacity_factor: Optional[float] = None,
    ):
        super().__init__()
        if top_k <= 0 or top_k > num_experts:
            raise ValueError(
                f"top_k must be in [1, {num_experts}], got {top_k}"
            )
        NON_NEGATIVE.check("noise_std", noise_std)
        POSITIVE.or_none().check("capacity_factor", capacity_factor)
        self.hidden_dim = hidden_dim
        self.num_experts = num_experts
        self.top_k = top_k
        self.noise_std = noise_std
        self.capacity_factor = capacity_factor
        self.noise_rng = np.random.default_rng(0)
        self.proj = Linear(hidden_dim, num_experts, bias=False, rng=rng)

    def expert_capacity(self, num_tokens: int) -> Optional[int]:
        """Max token-slots one expert accepts, or None if unlimited."""
        if self.capacity_factor is None:
            return None
        return int(
            np.ceil(
                self.capacity_factor * num_tokens * self.top_k
                / self.num_experts
            )
        )

    def forward(self, tokens: Tensor) -> GateDecision:
        """Route a flat (N, H) token batch."""
        if tokens.ndim != 2 or tokens.shape[1] != self.hidden_dim:
            raise ValueError(
                f"gate expects (N, {self.hidden_dim}) tokens, "
                f"got {tokens.shape}"
            )
        from ..tensorlib import functional as F

        logits = self.proj(tokens)
        probs = F.softmax(logits, axis=-1)

        # Deterministic top-k: stable argsort on negated probabilities so
        # ties resolve to the lower expert index on every worker.
        selection_scores = probs.data
        if self.noise_std > 0:
            selection_scores = selection_scores + self.noise_rng.normal(
                0.0, self.noise_std, size=selection_scores.shape
            )
        order = np.argsort(-selection_scores, axis=-1, kind="stable")
        expert_indices = order[:, : self.top_k]
        if self.capacity_factor is not None:
            expert_indices = self._apply_capacity(expert_indices)

        rows = np.arange(tokens.shape[0])[:, None]
        # Dropped slots are marked -1; index safely and mask their weight.
        safe_indices = np.where(expert_indices >= 0, expert_indices, 0)
        selected = probs[rows, safe_indices]  # (N, k) in the graph
        keep_mask = (expert_indices >= 0).astype(probs.data.dtype)
        masked = selected * Tensor(keep_mask)
        denominator = masked.sum(axis=-1, keepdims=True) + 1e-30
        combine = masked / denominator

        aux_loss = self._load_balancing_loss(probs, expert_indices)
        return GateDecision(
            expert_indices=expert_indices,
            combine_weights=combine,
            probs=probs,
            aux_loss=aux_loss,
        )

    def _apply_capacity(self, expert_indices: np.ndarray) -> np.ndarray:
        """Drop token-slots beyond each expert's capacity (marked -1).

        Slots are admitted in token order (GShard's position-in-expert):
        the slot keeps its place if fewer than ``capacity`` earlier slots
        chose the same expert.
        """
        num_tokens = expert_indices.shape[0]
        capacity = self.expert_capacity(num_tokens)
        flat = expert_indices.reshape(-1)
        sort_index = np.argsort(flat, kind="stable")
        sorted_vals = flat[sort_index]
        boundaries = np.flatnonzero(np.diff(sorted_vals)) + 1
        first = np.concatenate(([0], boundaries))
        lengths = np.diff(np.concatenate((first, [flat.size])))
        group_starts = np.repeat(first, lengths)
        positions_sorted = np.arange(flat.size) - group_starts
        positions = np.empty_like(positions_sorted)
        positions[sort_index] = positions_sorted
        kept = np.where(positions < capacity, flat, -1)
        return kept.reshape(expert_indices.shape)

    def _load_balancing_loss(
        self, probs: Tensor, expert_indices: np.ndarray
    ) -> Tensor:
        """Switch-Transformer auxiliary loss: E * sum_e f_e * P_e."""
        flat = expert_indices.reshape(-1)
        counts = np.bincount(flat[flat >= 0], minlength=self.num_experts)
        fraction = counts / max(1, expert_indices.size)
        mean_probs = probs.mean(axis=0)  # (num_experts,)
        return (mean_probs * Tensor(fraction)).sum() * float(self.num_experts)
