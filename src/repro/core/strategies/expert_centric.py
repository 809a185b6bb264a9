"""Expert-centric block execution: bulk-synchronous All-to-All.

The Tutel-equivalent baseline and the expert-centric mode of unified Janus:
all workers rendezvous at the block, a coordinator lane runs the dispatch
All-to-All, every worker computes its resident experts on the received
tokens, and the combine All-to-All returns the results.
"""

from __future__ import annotations

from typing import Tuple

from ...netsim import all_to_all
from ..memory_model import EC_A2A_SLACK
from ..taskgraph import Task, TaskKind, gpu_claim
from .base import BlockStrategy, register_strategy

__all__ = ["ExpertCentricStrategy"]

_BACKWARD = 2.0


@register_strategy
class ExpertCentricStrategy(BlockStrategy):
    """Synchronous dispatch-compute-combine over All-to-All (§2.2)."""

    name = "expert-centric"

    def _label(self, phase: str, index: int) -> str:
        return f"{self.name}.{phase}.b{index}"

    def _compute_body(self, ctx, rank: int, index: int, phase: str):
        """One rank's expert compute on the tokens it received: one
        batched GEMM group per resident expert, so the expert-centric
        paradigm pays far fewer kernel launches than fine-grained pulls."""
        engine = self.engine

        def body():
            workload = engine.workload
            block = workload.blocks[index]
            placement = ctx.placements[index]
            gpu_flops = engine._rank_flops(rank)
            mult = _BACKWARD if phase == "bwd" else 1.0
            received = sum(
                int(block.routing[:, expert].sum())
                for expert in placement.experts_of(rank)
            )
            overhead = (
                engine.cluster.spec.gpu.kernel_overhead
                * placement.experts_per_worker
            )
            seconds = engine._jittered(
                (received * workload.expert_flops / gpu_flops + overhead)
                * mult
            )
            start = ctx.env.now
            yield ctx.env.process(
                ctx.fabric.compute(ctx.gpu_of[rank], seconds)
            )
            if rank == engine.trace_worker:
                ctx.trace.record(
                    "compute.expert", start, ctx.env.now,
                    worker=rank, block=index, detail=f"{phase}:ec",
                )

        return body

    def _a2a_body(self, ctx, index: int, phase: str, combine: bool):
        engine = self.engine

        def body():
            workload = engine.workload
            block = workload.blocks[index]
            placement = ctx.placements[index]
            matrix = block.tokens_sent_matrix(
                placement, workload.token_bytes
            )
            if combine:
                matrix = matrix.T
            start = ctx.env.now
            yield all_to_all(
                ctx.fabric, matrix,
                hierarchical=engine.features.hierarchical_a2a,
            )
            ctx.trace.record(
                "comm.a2a", start, ctx.env.now, block=index,
                detail=f"{phase}-{'combine' if combine else 'dispatch'}",
            )

        return body

    def worker_tasks(self, ctx, rank: int, index: int, phase: str):
        p = self._label(phase, index)
        return [
            Task(
                f"{p}.w{rank}.arrive", TaskKind.GATE,
                signals=(f"{p}.arrive.{rank}",),
                worker=rank, block=index, phase=phase, traced=False,
            ),
            Task(
                f"{p}.w{rank}.compute", TaskKind.EXPERT_COMPUTE,
                waits=(f"{p}.dispatched",),
                signals=(f"{p}.computed.{rank}",),
                body=self._compute_body(ctx, rank, index, phase),
                claims=gpu_claim(rank),
                worker=rank, block=index, phase=phase, detail=f"{phase}:ec",
            ),
            Task(
                f"{p}.w{rank}.leave", TaskKind.GATE,
                waits=(f"{p}.combined",),
                worker=rank, block=index, phase=phase, traced=False,
            ),
        ]

    def service_lanes(self, ctx, graph, forward_only: bool):
        lanes = []
        world = self.engine.workload.world_size
        phases = ("fwd",) if forward_only else ("fwd", "bwd")
        for index in self.blocks:
            for phase in phases:
                p = self._label(phase, index)
                lane = graph.lane(f"{p}.coordinator", role="service")
                lane.add(Task(
                    f"{p}.a2a-dispatch", TaskKind.A2A_CHUNK,
                    waits=tuple(f"{p}.arrive.{r}" for r in range(world)),
                    signals=(f"{p}.dispatched",),
                    body=self._a2a_body(ctx, index, phase, combine=False),
                    block=index, phase=phase, detail=f"{phase}-dispatch",
                ))
                lane.add(Task(
                    f"{p}.a2a-combine", TaskKind.A2A_CHUNK,
                    waits=tuple(f"{p}.computed.{r}" for r in range(world)),
                    signals=(f"{p}.combined",),
                    body=self._a2a_body(ctx, index, phase, combine=True),
                    block=index, phase=phase, detail=f"{phase}-combine",
                ))
                lanes.append(lane)
        return lanes

    @classmethod
    def memory_terms(
        cls, config, num_blocks: int, credit_size: int, pipeline_chunks: int,
    ) -> Tuple[float, ...]:
        """Capacity-padded dispatch+combine payload copies alive until the
        block's backward completes — the Tutel buffer bloat of Fig. 16."""
        routed = config.tokens_per_worker * config.token_bytes
        return (EC_A2A_SLACK * 2.0 * routed * num_blocks,)
