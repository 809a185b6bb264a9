"""FLOP counts for the compute-time model of the timed engines.

Standard multiply-accumulate accounting (2 FLOPs per MAC) for the dense
transformer pieces, the gate and expert FFNs.  The backward pass is charged
the usual 2x the forward FLOPs.
"""

from __future__ import annotations

__all__ = [
    "attention_flops",
    "dense_ffn_flops",
    "gate_flops",
    "expert_flops_per_token",
    "BACKWARD_MULTIPLIER",
]

BACKWARD_MULTIPLIER = 2.0


def attention_flops(batch: int, seq: int, hidden: int) -> float:
    """QKV projection + scores + context + output projection."""
    projections = 4 * 2 * batch * seq * hidden * hidden  # qkv (3) + out (1)
    scores = 2 * batch * seq * seq * hidden
    context = 2 * batch * seq * seq * hidden
    return float(projections + scores + context)


def dense_ffn_flops(batch: int, seq: int, hidden: int, mult: int = 4) -> float:
    """Two linear layers H -> mult*H -> H."""
    return float(2 * 2 * batch * seq * hidden * mult * hidden)


def gate_flops(batch: int, seq: int, hidden: int, num_experts: int) -> float:
    return float(2 * batch * seq * hidden * num_experts)


def expert_flops_per_token(hidden: int, mult: int = 4) -> float:
    """One token through one expert FFN (H -> mult*H -> H)."""
    return float(2 * 2 * hidden * mult * hidden)
