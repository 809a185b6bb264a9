"""Per-GPU memory model for the timed engines.

Reproduces the paper's Fig. 16 out-of-memory behaviour: at long sequence
lengths the expert-centric paradigm OOMs because the All-to-All exchange
materializes capacity-padded send/receive buffers proportional to the token
volume (and PyTorch keeps them alive for the backward pass), while the
data-centric paradigm only ever holds a handful of expert weight buffers.

The model is deliberately coarse — constants below are calibrated to an
activation-checkpointed fp32 training setup — but every term is attributable:

* ``weights``: dense replica + local expert shard, times 4 for gradient +
  Adam moments.
* ``activations``: ACT_TENSORS_PER_BLOCK saved tensors of B*S*H per block
  (activation checkpointing keeps this small).
* ``moe stash``: the T routed token activations saved per MoE block for the
  expert backward (both paradigms).
* expert-centric extra: EC_A2A_SLACK capacity-padded copies of the T-token
  payload, twice (dispatch + combine), per MoE block, alive until that
  block's backward completes — the Tutel buffer bloat the paper names as
  the OOM cause.
* data-centric extra: the credit buffer (C experts) plus one expert's
  activations — independent of sequence length.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ModelConfig
from ..netsim.memory import MemoryTracker

__all__ = [
    "MemoryEstimate",
    "estimate_strategies",
    "check_fits",
    "ACT_TENSORS_PER_BLOCK",
    "EC_A2A_SLACK",
]

ACT_TENSORS_PER_BLOCK = 2.0
# Tutel-style All-to-All buffering: capacity-factor padded dispatch and
# combine payloads, plus the copies autograd retains for backward, amount
# to roughly six live copies of the routed-token payload per MoE block.
EC_A2A_SLACK = 6.0
WEIGHT_STATE_MULT = 4.0  # weights + grads + Adam m/v


@dataclass(frozen=True)
class MemoryEstimate:
    """Breakdown of one worker's GPU memory demand (bytes)."""

    weights: float
    activations: float
    moe_stash: float
    paradigm_extra: float

    @property
    def total(self) -> float:
        return (
            self.weights + self.activations + self.moe_stash
            + self.paradigm_extra
        )


def _dense_weight_bytes(config: ModelConfig) -> float:
    hidden = config.hidden_dim
    per_block = (
        4 * hidden * hidden              # attention qkv+out
        + 2 * hidden * config.ffn_mult * hidden  # dense FFN
        + 4 * hidden                     # layernorms
    )
    embeddings = (config.vocab_size + config.seq_len) * hidden
    head = config.vocab_size * hidden
    return (
        (per_block * config.num_blocks + embeddings + head)
        * config.dtype_bytes
    )


def _local_expert_bytes(config: ModelConfig, world_size: int) -> float:
    total = 0.0
    for index in config.moe_block_indices:
        total += config.experts_per_worker(index, world_size) * config.expert_bytes
    return total


def _base_terms(config: ModelConfig, world_size: int):
    weights = (
        _dense_weight_bytes(config) + _local_expert_bytes(config, world_size)
    ) * WEIGHT_STATE_MULT
    activation_tokens = config.batch_size * config.seq_len
    activations = (
        activation_tokens
        * config.hidden_dim
        * config.dtype_bytes
        * ACT_TENSORS_PER_BLOCK
        * config.num_blocks
    )
    routed_payload = config.tokens_per_worker * config.token_bytes
    moe_stash = routed_payload * config.num_moe_blocks
    return weights, activations, moe_stash, routed_payload


def estimate_strategies(
    config: ModelConfig,
    world_size: int,
    block_counts,
    credit_size: int = 2,
    pipeline_chunks: int = 4,
) -> MemoryEstimate:
    """Estimate for an arbitrary per-strategy split of the MoE blocks.

    ``block_counts`` maps block-strategy names (see
    :mod:`repro.core.strategies`) to how many MoE blocks run under each;
    the counts must cover every MoE block.  Each strategy contributes its
    own ``paradigm_extra`` terms, summed in strategy-table order so
    the result is bit-stable.
    """
    from .strategies import get_strategy, strategy_names

    if sum(block_counts.values()) != config.num_moe_blocks:
        raise ValueError("block counts must cover every MoE block")
    for name in block_counts:
        get_strategy(name)  # raises when unknown
    weights, activations, moe_stash, _ = _base_terms(config, world_size)
    extra = 0.0
    for name in strategy_names():
        if name not in block_counts:
            continue
        terms = get_strategy(name).memory_terms(
            config, block_counts[name], credit_size, pipeline_chunks
        )
        for term in terms:
            extra += term
    return MemoryEstimate(weights, activations, moe_stash, extra)


def check_fits(
    estimate: MemoryEstimate, capacity_bytes: float, label: str = "worker"
) -> MemoryTracker:
    """Validate the estimate against GPU capacity; raises OutOfMemoryError."""
    tracker = MemoryTracker(capacity_bytes)
    tracker.allocate(f"{label}.weights", estimate.weights)
    tracker.allocate(f"{label}.activations", estimate.activations)
    tracker.allocate(f"{label}.moe_stash", estimate.moe_stash)
    tracker.allocate(f"{label}.paradigm_extra", estimate.paradigm_extra)
    return tracker
