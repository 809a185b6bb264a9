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
``ec_pipeline_chunks``.  Chunks run the expert-centric block's compute and
All-to-All bodies at split K; only the lane layout (one dispatcher and one
combiner lane per block and phase) is this module's own.
"""

from __future__ import annotations

from typing import Tuple

from ..memory_model import EC_A2A_SLACK
from .base import register_strategy
from .expert_centric import ExpertCentricStrategy

__all__ = ["PipelinedExpertCentricStrategy"]


@register_strategy
class PipelinedExpertCentricStrategy(ExpertCentricStrategy):
    """Expert-centric with K-chunked, compute-overlapped All-to-All."""

    name = "pipelined-ec"

    def worker_tasks(self, ctx, rank: int, index: int, phase: str):
        p = self._label(phase, index)
        chunks = self.engine.features.chunks_for(index)
        return self._gated(p, rank, index, phase, [
            self._compute_task(
                ctx, f"{p}.w{rank}.compute.{chunk}", rank, index, phase,
                chunks, f"{phase}:pec:{chunk}",
                waits=(f"{p}.dispatched.{chunk}",),
                signals=(f"{p}.computed.{chunk}.{rank}",),
            )
            for chunk in range(chunks)
        ])

    def service_lanes(self, ctx, graph, forward_only: bool):
        lanes = []
        phases = ("fwd",) if forward_only else ("fwd", "bwd")
        for index in self.blocks:
            chunks = self.engine.features.chunks_for(index)
            for phase in phases:
                p = self._label(phase, index)
                dispatcher = graph.lane(f"{p}.dispatcher", role="service")
                for chunk in range(chunks):
                    # Only the first chunk waits for the rendezvous; the
                    # rest follow back-to-back in lane order.
                    dispatcher.add(self._a2a_task(
                        ctx, f"{p}.a2a-dispatch.{chunk}", index, phase,
                        chunks, False, f":{chunk}",
                        waits=(
                            self._all_ranks(f"{p}.arrive")
                            if chunk == 0 else ()
                        ),
                        signals=(f"{p}.dispatched.{chunk}",),
                    ))
                combiner = graph.lane(f"{p}.combiner", role="service")
                for chunk in range(chunks):
                    combiner.add(self._a2a_task(
                        ctx, f"{p}.a2a-combine.{chunk}", index, phase,
                        chunks, True, f":{chunk}",
                        waits=self._all_ranks(f"{p}.computed.{chunk}"),
                        signals=(
                            (f"{p}.combined",) if chunk == chunks - 1 else ()
                        ),
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
