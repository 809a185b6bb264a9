"""Tensor-parallel expert sharding analysis (paper §9 discussion).

The paper notes that very large MoE models also use tensor parallelism
(Megatron-style): each expert's two weight matrices are column/row split
over a TP group of ``tp_degree`` GPUs, and Janus "also supports tensor
parallelism".  This module extends the §5.1.3 communication analysis to
that regime:

* **data-centric + TP**: each TP rank pulls only its 1/tp shard of every
  expert, so a single pull shrinks by ``tp_degree`` while the group
  collectively still moves one full expert — aggregate Comm_DC is
  unchanged;
* **expert-centric + TP**: each token reaches its expert's TP group once
  and is shared inside the group, so aggregate Comm_EC is also unchanged;
* folding world/tp expert-parallel groups over the same experts raises E
  per group by ``tp_degree``, and the two effects cancel exactly:
  ``R_tp = tp_degree * R(E * tp) = R(E)`` — **tensor parallelism does not
  change the paradigm choice**, it only makes data-centric pulls finer
  grained (better overlap, smaller buffers).

These closed forms back a planner for TP deployments; the timed engines
stay at TP=1 (the paper's evaluation setting).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ModelConfig
from .paradigm import gain_ratio, select_paradigm

__all__ = ["TensorParallelPlan", "plan_tensor_parallel"]


@dataclass(frozen=True)
class TensorParallelPlan:
    """Communication analysis of one MoE block under tensor parallelism."""

    block_index: int
    tp_degree: int
    experts_per_group: int          # E: experts owned by one TP group
    shard_bytes: float              # one expert shard (what a pull moves)
    base_ratio: float               # R at tp=1
    effective_ratio: float          # R_tp = tp * R
    paradigm: str                   # "data-centric" or "expert-centric"


def plan_tensor_parallel(
    config: ModelConfig,
    block_index: int,
    num_machines: int,
    workers_per_machine: int,
    tp_degree: int,
    threshold: float = 1.0,
) -> TensorParallelPlan:
    """Plan one MoE block for a TP deployment.

    Expert-parallel groups are formed over ``world / tp_degree`` logical
    workers; each logical worker is a TP group of ``tp_degree`` GPUs.
    """
    if tp_degree <= 0:
        raise ValueError("tp_degree must be positive")
    world = num_machines * workers_per_machine
    if world % tp_degree != 0:
        raise ValueError(
            f"world size {world} not divisible by tp_degree {tp_degree}"
        )
    ep_world = world // tp_degree
    experts = config.num_experts(block_index)
    if experts % ep_world != 0:
        raise ValueError(
            f"{experts} experts cannot be split over {ep_world} "
            f"expert-parallel groups"
        )
    experts_per_group = experts // ep_world
    base = gain_ratio(
        config.batch_size,
        config.seq_len,
        config.top_k,
        num_machines,
        config.hidden_dim,
        experts_per_group,
    )
    effective = base * tp_degree
    return TensorParallelPlan(
        block_index=block_index,
        tp_degree=tp_degree,
        experts_per_group=experts_per_group,
        shard_bytes=config.expert_bytes / tp_degree,
        base_ratio=base,
        effective_ratio=effective,
        paradigm=select_paradigm(effective, threshold=threshold),
    )
