"""MoE transformer model zoo (functional layer)."""

from .attention import MultiHeadAttention
from .dispatch import DispatchPlan, combine_sorted, gather_slots
from .ffn import Expert, FeedForward
from .gate import GateDecision, TopKGate
from .moe_block import MoEBlock, MoELayer, dispatch_compute_combine
from .transformer import MoETransformer, TransformerBlock
from . import flops

__all__ = [
    "DispatchPlan",
    "Expert",
    "FeedForward",
    "GateDecision",
    "MoEBlock",
    "MoELayer",
    "MoETransformer",
    "MultiHeadAttention",
    "TopKGate",
    "TransformerBlock",
    "combine_sorted",
    "dispatch_compute_combine",
    "flops",
    "gather_slots",
]
