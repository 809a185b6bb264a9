"""Micro-batched expert-centric execution.

Splits the global batch into M micro-batches and gives each its own worker
lane per rank, so the per-micro-batch block DAGs interleave: micro-batch
``i``'s expert compute overlaps micro-batch ``i+1``'s dispatch All-to-All
*across block boundaries* — the pipeline-parallel schedule of Parm/FlowMoE
generalized past a single block.  Each micro-batch carries 1/M of the
tokens (and of the dense flops, handled by the engine's micro worker
lanes) but pays the full kernel-launch overhead per block, which is the
cost that bounds useful M.

The per-micro-batch tasks and coordinator lanes are the expert-centric
block's at split M; with ``micro_batches=1`` this strategy runs as plain
expert-centric.
"""

from __future__ import annotations

from .base import register_strategy
from .expert_centric import ExpertCentricStrategy

__all__ = ["MicroBatchExpertCentricStrategy"]


@register_strategy
class MicroBatchExpertCentricStrategy(ExpertCentricStrategy):
    """Expert-centric with M interleaved micro-batch pipelines."""

    name = "microbatch-ec"
    micro_capable = True
