"""Sort-based token dispatch: one argsort instead of per-expert scans.

The naive MoE dispatch asks ``np.nonzero(expert_indices == e)`` once per
expert — an O(N·k·E) sweep over the routing table.  A single stable argsort
of the flattened (N·k) assignments produces the same per-expert
(token, slot) lists as *contiguous segments* of one sorted layout:

* dropped slots (marked ``-1`` by the capacity limit) sort first and are
  skipped with one ``searchsorted``;
* stable sorting preserves row-major order within each expert, so every
  segment is element-for-element identical to the ``np.nonzero`` result;
* segment boundaries come from a bincount/cumsum, so looking up an
  expert's tokens is O(1).

Both execution paradigms and the reference :func:`dispatch_compute_combine`
share this plan: gather all routed rows once, run each expert on its
segment, then un-dispatch with a single weighted scatter-add
(:func:`combine_sorted`).  Because every (token, slot) pair appears exactly
once across segments and ``np.add.at`` accumulates in index order, the
combine is value-identical to the old per-expert scatter chain.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..tensorlib import Tensor

__all__ = ["DispatchPlan", "combine_sorted", "gather_slots"]


class DispatchPlan:
    """Sorted segment layout of one routing decision.

    Attributes:
        token_ids: (R,) token row of each kept slot, grouped by expert
            (R = total routed slots after capacity drops).
        slot_ids: (R,) top-k slot column of each kept slot, same order.
        counts: (E,) kept slots per expert.
        starts: (E + 1,) segment offsets; expert ``e`` owns rows
            ``starts[e]:starts[e + 1]`` of the sorted layout.
    """

    __slots__ = (
        "num_experts",
        "num_tokens",
        "top_k",
        "token_ids",
        "slot_ids",
        "counts",
        "starts",
    )

    def __init__(self, expert_indices: np.ndarray, num_experts: int):
        flat = expert_indices.reshape(-1)
        order = np.argsort(flat, kind="stable")
        sorted_experts = flat[order]
        # Capacity-dropped slots are -1 and sort to the front.
        kept_from = np.searchsorted(sorted_experts, 0, side="left")
        kept = order[kept_from:]
        self.num_tokens, self.top_k = expert_indices.shape
        self.num_experts = int(num_experts)
        self.token_ids = kept // self.top_k
        self.slot_ids = kept % self.top_k
        self.counts = np.bincount(
            sorted_experts[kept_from:], minlength=num_experts
        )
        self.starts = np.concatenate(([0], np.cumsum(self.counts)))

    @property
    def total_routed(self) -> int:
        """Kept (token, slot) pairs across all experts."""
        return self.token_ids.size

    def count(self, expert: int) -> int:
        return int(self.counts[expert])

    def segment_bounds(self, expert: int) -> Tuple[int, int]:
        """Half-open ``[start, stop)`` of ``expert``'s rows in the layout."""
        return int(self.starts[expert]), int(self.starts[expert + 1])

    def experts_present(self) -> np.ndarray:
        """Experts with at least one routed slot, ascending."""
        return np.flatnonzero(self.counts)


def gather_slots(tokens: Tensor, plan: DispatchPlan) -> Tensor:
    """Gather routed token rows into plan (sorted-by-expert) order.

    Forward matches ``tokens[plan.token_ids]``; the backward
    pass exploits that every (token, slot) pair occurs exactly once in the
    plan, so the incoming gradient can be *assigned* into an (N, k, H)
    layout and reduced over the slot axis — no ``np.add.at`` scalar loop.
    """
    token_ids = plan.token_ids
    out_data = tokens.data[token_ids]

    def backward(grad):
        if tokens.requires_grad:
            pairs = np.zeros(
                (plan.num_tokens, plan.top_k) + grad.shape[1:],
                dtype=grad.dtype,
            )
            pairs[token_ids, plan.slot_ids] = grad
            tokens._accumulate(pairs.sum(axis=1))

    return tokens._make(out_data, (tokens,), backward)


def _gather_pairs(weights: Tensor, plan: DispatchPlan) -> Tensor:
    """``weights[(token, slot)]`` per kept pair, in plan order."""
    out_data = weights.data[plan.token_ids, plan.slot_ids]

    def backward(grad):
        if weights.requires_grad:
            full = np.zeros_like(weights.data)
            full[plan.token_ids, plan.slot_ids] = grad  # pairs are unique
            weights._accumulate(full)

    return weights._make(out_data, (weights,), backward)


def _scatter_slots(plan: DispatchPlan, values: Tensor) -> Tensor:
    """Sum each token's (up to top_k) weighted expert rows.

    The slot-axis reduction of the uniquely-assigned (N, k, H) layout —
    the fast inverse of :func:`gather_slots`.
    """
    pairs = np.zeros(
        (plan.num_tokens, plan.top_k) + values.shape[1:],
        dtype=values.data.dtype,
    )
    pairs[plan.token_ids, plan.slot_ids] = values.data
    out_data = pairs.sum(axis=1)

    def backward(grad):
        if values.requires_grad:
            values._accumulate(grad[plan.token_ids])

    return values._make(out_data, (values,), backward)


def combine_sorted(
    num_tokens: int,
    plan: DispatchPlan,
    decision,
    expert_outputs: Tensor,
) -> Tensor:
    """Weighted un-dispatch of expert outputs laid out in plan order.

    ``expert_outputs`` is the (R, H) concatenation of every expert's output
    rows in segment order; one gather of the combine weights and one
    slot-wise scatter produce the (num_tokens, H) mixed output.
    """
    if num_tokens != plan.num_tokens:
        raise ValueError(
            f"plan covers {plan.num_tokens} tokens, got {num_tokens}"
        )
    weights = _gather_pairs(decision.combine_weights, plan)
    weighted = expert_outputs * weights.reshape(-1, 1)
    return _scatter_slots(plan, weighted)
