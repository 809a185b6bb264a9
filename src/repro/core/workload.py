"""Iteration workload descriptors for the timed engines.

An :class:`IterationWorkload` distils a :class:`~repro.config.ModelConfig`
running on a cluster into exactly what the timing simulation needs: per-block
compute durations, per-(worker, expert) routed token-slot counts for every
MoE block, and the wire sizes of tokens and experts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..cluster import Cluster
from ..config import ModelConfig
from ..models.flops import (
    attention_flops,
    dense_ffn_flops,
    expert_flops_per_token,
    gate_flops,
)
from ..runtime.layout import ExpertPlacement, RankLayout
from ..workloads import balanced_assignment, zipf_weights

__all__ = ["BlockWorkload", "IterationWorkload", "build_workload"]


@dataclass
class BlockWorkload:
    """What one model block costs on one worker.

    For MoE blocks, ``routing[r, e]`` is the number of token slots worker
    ``r`` routes to global expert ``e`` (row sums equal T = B*S*k).
    """

    index: int
    is_moe: bool
    dense_flops: float                    # attention (+ gate for MoE blocks)
    ffn_flops: float = 0.0                # dense FFN (non-MoE blocks only)
    num_experts: int = 0
    routing: Optional[np.ndarray] = None  # (world, num_experts) int counts

    def tokens_sent_matrix(
        self, placement: ExpertPlacement, token_bytes: float
    ) -> np.ndarray:
        """(world, world) dispatch byte matrix for All-to-All."""
        world = self.routing.shape[0]
        matrix = np.zeros((world, world))
        for expert in range(self.num_experts):
            owner = placement.owner(expert)
            matrix[:, owner] += self.routing[:, expert] * token_bytes
        np.fill_diagonal(matrix, 0.0)
        return matrix


@dataclass
class IterationWorkload:
    """Everything the timed engines need for one training iteration."""

    config: ModelConfig
    layout: RankLayout
    blocks: List[BlockWorkload]
    token_bytes: float
    expert_bytes: float
    expert_flops: float                   # per token through one expert

    @property
    def world_size(self) -> int:
        return self.layout.world_size

    def placement(self, block_index: int) -> ExpertPlacement:
        block = self.blocks[block_index]
        if not block.is_moe:
            raise ValueError(f"block {block_index} is not an MoE block")
        return ExpertPlacement(block.num_experts, self.world_size)

    def moe_blocks(self) -> List[BlockWorkload]:
        return [block for block in self.blocks if block.is_moe]


def build_workload(
    config: ModelConfig,
    cluster: Cluster,
    imbalance: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> IterationWorkload:
    """Build the per-iteration workload for ``config`` on ``cluster``.

    ``imbalance`` is a Zipf skew for the expert routing distribution:
    0 means perfectly balanced (the paper's analytic lower bound for
    expert-centric), larger values concentrate tokens on hot experts
    (the §3.1 imbalance observation).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    layout = RankLayout(cluster.num_machines, cluster.gpus_per_machine)
    world = layout.world_size
    tokens_per_worker = config.tokens_per_worker

    blocks: List[BlockWorkload] = []
    for index in range(config.num_blocks):
        attn = attention_flops(
            config.batch_size, config.seq_len, config.hidden_dim
        )
        if config.is_moe_block(index):
            num_experts = config.num_experts(index)
            gate = gate_flops(
                config.batch_size,
                config.seq_len,
                config.hidden_dim,
                num_experts,
            )
            routing = np.zeros((world, num_experts), dtype=np.int64)
            if imbalance > 0:
                # One popularity vector per block: every worker overloads
                # the same hot experts (the cluster-wide imbalance of §3.1).
                weights = zipf_weights(num_experts, imbalance, rng=rng)
            for rank in range(world):
                if imbalance <= 0:
                    routing[rank] = balanced_assignment(
                        tokens_per_worker, num_experts
                    )
                else:
                    routing[rank] = rng.multinomial(tokens_per_worker, weights)
            blocks.append(
                BlockWorkload(
                    index=index,
                    is_moe=True,
                    dense_flops=attn + gate,
                    num_experts=num_experts,
                    routing=routing,
                )
            )
        else:
            blocks.append(
                BlockWorkload(
                    index=index,
                    is_moe=False,
                    dense_flops=attn,
                    ffn_flops=dense_ffn_flops(
                        config.batch_size,
                        config.seq_len,
                        config.hidden_dim,
                        config.ffn_mult,
                    ),
                )
            )

    return IterationWorkload(
        config=config,
        layout=layout,
        blocks=blocks,
        token_bytes=config.token_bytes,
        expert_bytes=config.expert_bytes,
        expert_flops=expert_flops_per_token(config.hidden_dim, config.ffn_mult),
    )
