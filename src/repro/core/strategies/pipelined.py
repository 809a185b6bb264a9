"""Pipelined expert-centric execution: chunked All-to-All overlap.

Parm/FlowMoE-style pipeline scheduling for blocks where the data-centric
paradigm loses (R < 1) but the plain expert-centric block still serializes
communication and compute.  The dispatch and combine All-to-Alls are split
into K token chunks so that expert compute on chunk ``i`` overlaps the
dispatch All-to-All of chunk ``i+1`` and the combine All-to-All of chunk
``i-1``:

    plain EC:   [dispatch A2A][ expert compute ][combine A2A]
    pipelined:  [dA2A 0][dA2A 1][dA2A 2]...
                        [cmp 0] [cmp 1] [cmp 2]...
                                [cA2A 0][cA2A 1][cA2A 2]...

The block-level barrier semantics are unchanged — workers still leave the
block only after the last combine chunk lands — so the result is
numerically the same iteration, just with hidden communication time.  The
price is K× the kernel-launch overhead (every chunk re-launches each
resident expert's batched GEMM), which is why very large K loses again.

The chunk count is per block: ``JanusFeatures.chunks_for(index)`` — the
tuner's ``block_chunks`` override when one is set, else the global
``ec_pipeline_chunks``.
"""

from __future__ import annotations

from typing import Tuple

from ...netsim import all_to_all
from ..memory_model import EC_A2A_SLACK
from ..taskgraph import Task, TaskKind, gpu_claim
from .base import BlockStrategy, register_strategy

__all__ = ["PipelinedExpertCentricStrategy"]

_BACKWARD = 2.0


@register_strategy
class PipelinedExpertCentricStrategy(BlockStrategy):
    """Expert-centric with K-chunked, compute-overlapped All-to-All."""

    name = "pipelined-ec"

    def _chunk_matrix(self, ctx, index: int):
        workload = self.engine.workload
        block = workload.blocks[index]
        placement = ctx.placements[index]
        dispatch = block.tokens_sent_matrix(placement, workload.token_bytes)
        return dispatch / self.engine.features.chunks_for(index)

    def _chunk_compute_body(self, ctx, rank: int, index: int, phase: str,
                            chunk: int):
        """One rank's expert compute on one token chunk.  Every chunk
        re-launches one batched GEMM group per resident expert — the
        kernel-overhead cost of pipelining."""
        engine = self.engine

        def body():
            workload = engine.workload
            block = workload.blocks[index]
            placement = ctx.placements[index]
            gpu_flops = engine._rank_flops(rank)
            mult = _BACKWARD if phase == "bwd" else 1.0
            chunks = engine.features.chunks_for(index)
            received = sum(
                int(block.routing[:, expert].sum())
                for expert in placement.experts_of(rank)
            )
            overhead = (
                engine.cluster.spec.gpu.kernel_overhead
                * placement.experts_per_worker
            )
            seconds = engine._jittered(
                (received / chunks * workload.expert_flops / gpu_flops
                 + overhead) * mult
            )
            start = ctx.env.now
            yield ctx.env.process(
                ctx.fabric.compute(ctx.gpu_of[rank], seconds)
            )
            if rank == engine.trace_worker:
                ctx.trace.record(
                    "compute.expert", start, ctx.env.now,
                    worker=rank, block=index,
                    detail=f"{phase}:pec:{chunk}",
                )

        return body

    def _chunk_a2a_body(self, ctx, index: int, phase: str, chunk: int,
                        combine: bool):
        engine = self.engine

        def body():
            matrix = self._chunk_matrix(ctx, index)
            if combine:
                matrix = matrix.T
            start = ctx.env.now
            yield all_to_all(
                ctx.fabric, matrix,
                hierarchical=engine.features.hierarchical_a2a,
            )
            side = "combine" if combine else "dispatch"
            ctx.trace.record(
                "comm.a2a", start, ctx.env.now,
                block=index, detail=f"{phase}-{side}:{chunk}",
            )

        return body

    def worker_tasks(self, ctx, rank: int, index: int, phase: str):
        p = f"{self.name}.{phase}.b{index}"
        chunks = self.engine.features.chunks_for(index)
        tasks = [Task(
            f"{p}.w{rank}.arrive", TaskKind.GATE,
            signals=(f"{p}.arrive.{rank}",),
            worker=rank, block=index, phase=phase, traced=False,
        )]
        for chunk in range(chunks):
            tasks.append(Task(
                f"{p}.w{rank}.compute.{chunk}", TaskKind.EXPERT_COMPUTE,
                waits=(f"{p}.dispatched.{chunk}",),
                signals=(f"{p}.computed.{chunk}.{rank}",),
                body=self._chunk_compute_body(ctx, rank, index, phase, chunk),
                claims=gpu_claim(rank),
                worker=rank, block=index, phase=phase,
                detail=f"{phase}:pec:{chunk}",
            ))
        tasks.append(Task(
            f"{p}.w{rank}.leave", TaskKind.GATE,
            waits=(f"{p}.combined",),
            worker=rank, block=index, phase=phase, traced=False,
        ))
        return tasks

    def service_lanes(self, ctx, graph, forward_only: bool):
        lanes = []
        engine = self.engine
        world = engine.workload.world_size
        phases = ("fwd",) if forward_only else ("fwd", "bwd")
        for index in self.blocks:
            chunks = engine.features.chunks_for(index)
            for phase in phases:
                p = f"{self.name}.{phase}.b{index}"
                dispatcher = graph.lane(f"{p}.dispatcher", role="service")
                for chunk in range(chunks):
                    # Only the first chunk waits for the rendezvous; the
                    # rest follow back-to-back in lane order.
                    waits = (
                        tuple(f"{p}.arrive.{r}" for r in range(world))
                        if chunk == 0 else ()
                    )
                    dispatcher.add(Task(
                        f"{p}.a2a-dispatch.{chunk}", TaskKind.A2A_CHUNK,
                        waits=waits,
                        signals=(f"{p}.dispatched.{chunk}",),
                        body=self._chunk_a2a_body(
                            ctx, index, phase, chunk, combine=False
                        ),
                        block=index, phase=phase,
                        detail=f"{phase}-dispatch:{chunk}",
                    ))
                combiner = graph.lane(f"{p}.combiner", role="service")
                for chunk in range(chunks):
                    combiner.add(Task(
                        f"{p}.a2a-combine.{chunk}", TaskKind.A2A_CHUNK,
                        waits=tuple(
                            f"{p}.computed.{chunk}.{r}" for r in range(world)
                        ),
                        signals=(
                            (f"{p}.combined",) if chunk == chunks - 1 else ()
                        ),
                        body=self._chunk_a2a_body(
                            ctx, index, phase, chunk, combine=True
                        ),
                        block=index, phase=phase,
                        detail=f"{phase}-combine:{chunk}",
                    ))
                lanes.extend((dispatcher, combiner))
        return lanes

    @classmethod
    def memory_terms(
        cls, config, num_blocks: int, credit_size: int, pipeline_chunks: int,
    ) -> Tuple[float, ...]:
        """Chunking shrinks the transient dispatch/combine working buffers
        to 1/K of the token payload; the copies autograd retains for the
        backward stay full-sized."""
        routed = config.tokens_per_worker * config.token_bytes
        slack = (EC_A2A_SLACK - 2.0) + 2.0 / pipeline_chunks
        return (slack * 2.0 * routed * num_blocks,)
