"""Traffic analysis: regenerates the paper's Table 1 numbers.

Combines the closed-form §5.1.3 volumes with live measurements from either
the functional runtime's CommLog or the timed engine's NIC counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..config import ModelConfig
from ..core.paradigm import profile_model

__all__ = ["TrafficRow", "table1_row", "table1", "model_size_billion"]

GIB = 1024.0**3


def model_size_billion(config: ModelConfig, world_size: int) -> float:
    """Total parameter count in billions (Table 1's "Model size (B)").

    Dense replica + all experts of every MoE block.
    """
    hidden = config.hidden_dim
    dense_per_block = (
        4 * hidden * hidden + 2 * hidden * config.ffn_mult * hidden + 4 * hidden
    )
    embeddings = (config.vocab_size + config.seq_len) * hidden
    head = config.vocab_size * hidden
    dense = dense_per_block * config.num_blocks + embeddings + head
    experts = sum(
        config.num_experts(index) * config.expert_param_count
        for index in config.moe_block_indices
    )
    return (dense + experts) / 1e9


@dataclass(frozen=True)
class TrafficRow:
    """One column of Table 1 (a model at a given expert count)."""

    model: str
    batch_size: int
    seq_len: int
    top_k: int
    hidden_dim: int
    num_moe_blocks: int
    num_experts: int
    num_gpus: int
    model_size_b: float
    expert_centric_gib: float
    data_centric_gib: float

    @property
    def reduction(self) -> float:
        return self.expert_centric_gib / self.data_centric_gib


def table1_row(
    config: ModelConfig,
    num_machines: int,
    workers_per_machine: int = 8,
) -> TrafficRow:
    """Per-machine forward-phase cross-node traffic (GiB), as in Table 1."""
    world = num_machines * workers_per_machine
    ec_total = 0.0
    dc_total = 0.0
    for profile in profile_model(config, num_machines, workers_per_machine):
        ec_total += profile.expert_centric_bytes
        dc_total += profile.data_centric_bytes
    return TrafficRow(
        model=config.name,
        batch_size=config.batch_size,
        seq_len=config.seq_len,
        top_k=config.top_k,
        hidden_dim=config.hidden_dim,
        num_moe_blocks=config.num_moe_blocks,
        num_experts=config.num_experts(config.moe_block_indices[0]),
        num_gpus=world,
        model_size_b=model_size_billion(config, world),
        expert_centric_gib=ec_total / GIB,
        data_centric_gib=dc_total / GIB,
    )


def table1(model_factories: Dict[str, object]) -> List[TrafficRow]:
    """Both Table 1 columns (16 experts / 2 machines, 32 experts / 4)."""
    rows: List[TrafficRow] = []
    for factory in model_factories.values():
        for experts, machines in ((16, 2), (32, 4)):
            rows.append(table1_row(factory(experts), machines))
    return rows
