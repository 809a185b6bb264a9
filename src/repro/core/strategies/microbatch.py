"""Micro-batched expert-centric execution.

Splits the global batch into M micro-batches and gives each its own worker
lane per rank, so the per-micro-batch block DAGs interleave: micro-batch
``i``'s expert compute overlaps micro-batch ``i+1``'s dispatch All-to-All
*across block boundaries* — the pipeline-parallel schedule of Parm/FlowMoE
generalized past a single block.  Each micro-batch carries 1/M of the
tokens (and of the dense flops, handled by the engine's micro worker
lanes) but pays the full kernel-launch overhead per block, which is the
cost that bounds useful M.

With ``micro_batches=1`` this strategy runs as plain expert-centric: it
inherits the synchronous worker tasks and coordinator lanes.
"""

from __future__ import annotations

from ...netsim import all_to_all
from ..taskgraph import Task, TaskKind, gpu_claim
from .base import register_strategy
from .expert_centric import ExpertCentricStrategy

__all__ = ["MicroBatchExpertCentricStrategy"]

_BACKWARD = 2.0


@register_strategy
class MicroBatchExpertCentricStrategy(ExpertCentricStrategy):
    """Expert-centric with M interleaved micro-batch pipelines."""

    name = "microbatch-ec"
    micro_capable = True

    # -- micro-batch task bodies -----------------------------------------------

    def _micro_compute_body(self, ctx, rank: int, index: int, phase: str,
                            m: int, micro: int):
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
            # 1/M of the tokens, but the full per-expert kernel launch
            # cost every micro-batch — the price of pipelining.
            overhead = (
                engine.cluster.spec.gpu.kernel_overhead
                * placement.experts_per_worker
            )
            seconds = engine._jittered(
                (received / micro * workload.expert_flops / gpu_flops
                 + overhead) * mult
            )
            start = ctx.env.now
            yield ctx.env.process(
                ctx.fabric.compute(ctx.gpu_of[rank], seconds)
            )
            if rank == engine.trace_worker:
                ctx.trace.record(
                    "compute.expert", start, ctx.env.now,
                    worker=rank, block=index, detail=f"{phase}:ec:mb{m}",
                )

        return body

    def _micro_a2a_body(self, ctx, index: int, phase: str, m: int,
                        micro: int, combine: bool):
        engine = self.engine

        def body():
            workload = engine.workload
            block = workload.blocks[index]
            placement = ctx.placements[index]
            matrix = block.tokens_sent_matrix(
                placement, workload.token_bytes
            ) / micro
            if combine:
                matrix = matrix.T
            start = ctx.env.now
            yield all_to_all(
                ctx.fabric, matrix,
                hierarchical=engine.features.hierarchical_a2a,
            )
            side = "combine" if combine else "dispatch"
            ctx.trace.record(
                "comm.a2a", start, ctx.env.now, block=index,
                detail=f"{phase}-{side}:mb{m}",
            )

        return body

    # -- task-graph hooks ------------------------------------------------------

    def _micro_label(self, phase: str, index: int, m: int) -> str:
        return f"{self.name}.{phase}.b{index}.mb{m}"

    def micro_worker_tasks(self, ctx, rank: int, index: int, phase: str,
                           micro: int, micro_batches: int):
        p = self._micro_label(phase, index, micro)
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
                body=self._micro_compute_body(
                    ctx, rank, index, phase, micro, micro_batches
                ),
                claims=gpu_claim(rank),
                worker=rank, block=index, phase=phase,
                detail=f"{phase}:ec:mb{micro}",
            ),
            Task(
                f"{p}.w{rank}.leave", TaskKind.GATE,
                waits=(f"{p}.combined",),
                worker=rank, block=index, phase=phase, traced=False,
            ),
        ]

    def micro_service_lanes(self, ctx, graph, forward_only: bool,
                            micro_batches: int):
        lanes = []
        world = self.engine.workload.world_size
        phases = ("fwd",) if forward_only else ("fwd", "bwd")
        for index in self.blocks:
            for phase in phases:
                for m in range(micro_batches):
                    p = self._micro_label(phase, index, m)
                    lane = graph.lane(f"{p}.coordinator", role="service")
                    lane.add(Task(
                        f"{p}.a2a-dispatch", TaskKind.A2A_CHUNK,
                        waits=tuple(
                            f"{p}.arrive.{r}" for r in range(world)
                        ),
                        signals=(f"{p}.dispatched",),
                        body=self._micro_a2a_body(
                            ctx, index, phase, m, micro_batches,
                            combine=False,
                        ),
                        block=index, phase=phase,
                        detail=f"{phase}-dispatch:mb{m}",
                    ))
                    lane.add(Task(
                        f"{p}.a2a-combine", TaskKind.A2A_CHUNK,
                        waits=tuple(
                            f"{p}.computed.{r}" for r in range(world)
                        ),
                        signals=(f"{p}.combined",),
                        body=self._micro_a2a_body(
                            ctx, index, phase, m, micro_batches,
                            combine=True,
                        ),
                        block=index, phase=phase,
                        detail=f"{phase}-combine:mb{m}",
                    ))
                    lanes.append(lane)
        return lanes
