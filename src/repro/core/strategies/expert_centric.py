"""Expert-centric block execution: bulk-synchronous All-to-All.

The Tutel-equivalent baseline and the expert-centric mode of unified Janus:
all workers rendezvous at the block, a coordinator lane runs the dispatch
All-to-All, every worker computes its resident experts on the received
tokens, and the combine All-to-All returns the results.

The block is one schedule with a split degree: the micro-batched
(``microbatch-ec``) and chunked (``pipelined-ec``) variants run the same
compute and All-to-All bodies on ``1/split`` of the tokens, and the plain
block is split 1.
"""

from __future__ import annotations

from typing import Tuple

from ...netsim import all_to_all
from ..memory_model import EC_A2A_SLACK
from ..taskgraph import Task, TaskKind, gpu_claim
from .base import BlockStrategy

__all__ = ["ExpertCentricStrategy"]


class ExpertCentricStrategy(BlockStrategy):
    """Synchronous dispatch-compute-combine over All-to-All (§2.2).

    ``worker_tasks``/``service_lanes`` take the micro-batch ``(m, M)``:
    each of the M pipelines carries 1/M of the tokens through its own
    rendezvous, All-to-Alls and compute.  M=1 is the plain block."""

    name = "expert-centric"

    def _label(self, phase: str, index: int, m: int = 0,
               micro_batches: int = 1) -> str:
        label = f"{self.name}.{phase}.b{index}"
        return label if micro_batches == 1 else f"{label}.mb{m}"

    # -- the shared bodies -------------------------------------------------------

    def _compute_task(self, ctx, name: str, rank: int, index: int,
                      phase: str, split: int, detail: str, waits,
                      signals) -> Task:
        """One rank's expert compute on ``1/split`` of its received
        tokens: one batched GEMM group per resident expert, so every split
        pays the full kernel-launch cost."""
        engine = self.engine

        def body():
            block = engine.workload.blocks[index]
            placement = ctx.placements[index]
            received = sum(
                int(block.routing[:, expert].sum())
                for expert in placement.experts_of(rank)
            )
            seconds = self.expert_seconds(
                received / split, engine._rank_flops(rank),
                placement.experts_per_worker, phase,
            )
            yield ctx.fabric.compute(ctx.gpu_of[rank], seconds)

        return Task(
            name, TaskKind.EXPERT_COMPUTE, waits=waits, signals=signals,
            body=body, claims=gpu_claim(rank),
            worker=rank, block=index, phase=phase, detail=detail,
            span="compute.expert",
        )

    def _a2a_task(self, ctx, name: str, index: int, phase: str, split: int,
                  combine: bool, suffix: str, waits, signals) -> Task:
        """The dispatch (or, transposed, combine) All-to-All of ``1/split``
        of the block's routed tokens."""
        engine = self.engine
        detail = f"{phase}-{'combine' if combine else 'dispatch'}{suffix}"

        def body():
            workload = engine.workload
            block = workload.blocks[index]
            matrix = block.tokens_sent_matrix(
                ctx.placements[index], workload.token_bytes
            ) / split
            if combine:
                matrix = matrix.T
            yield all_to_all(
                ctx.fabric, matrix,
                hierarchical=engine.features.hierarchical_a2a,
            )

        return Task(
            name, TaskKind.A2A_CHUNK, waits=waits, signals=signals,
            body=body, block=index, phase=phase, detail=detail,
            span="comm.a2a",
        )

    def _gated(self, p: str, rank: int, index: int, phase: str, computes):
        """A worker's compute tasks between the block's rendezvous gate
        and its leave gate (released by the last combine)."""
        return [
            Task(
                f"{p}.w{rank}.arrive", TaskKind.GATE,
                signals=(f"{p}.arrive.{rank}",),
                worker=rank, block=index, phase=phase,
            ),
            *computes,
            Task(
                f"{p}.w{rank}.leave", TaskKind.GATE,
                waits=(f"{p}.combined",),
                worker=rank, block=index, phase=phase,
            ),
        ]

    def _all_ranks(self, label: str) -> tuple:
        return tuple(
            f"{label}.{r}" for r in range(self.engine.workload.world_size)
        )

    # -- task-graph hooks ------------------------------------------------------

    def worker_tasks(self, ctx, rank: int, index: int, phase: str,
                     micro: Tuple[int, int] = (0, 1)):
        m, micro_batches = micro
        p = self._label(phase, index, m, micro_batches)
        suffix = "" if micro_batches == 1 else f":mb{m}"
        return self._gated(p, rank, index, phase, [self._compute_task(
            ctx, f"{p}.w{rank}.compute", rank, index, phase, micro_batches,
            f"{phase}:ec{suffix}", waits=(f"{p}.dispatched",),
            signals=(f"{p}.computed.{rank}",),
        )])

    def service_lanes(self, ctx, graph, forward_only: bool,
                      micro_batches: int = 1):
        lanes = []
        phases = ("fwd",) if forward_only else ("fwd", "bwd")
        for index in self.blocks:
            for phase in phases:
                for m in range(micro_batches):
                    p = self._label(phase, index, m, micro_batches)
                    suffix = "" if micro_batches == 1 else f":mb{m}"
                    lane = graph.lane(f"{p}.coordinator", role="service")
                    lane.add(self._a2a_task(
                        ctx, f"{p}.a2a-dispatch", index, phase,
                        micro_batches, False, suffix,
                        waits=self._all_ranks(f"{p}.arrive"),
                        signals=(f"{p}.dispatched",),
                    ))
                    lane.add(self._a2a_task(
                        ctx, f"{p}.a2a-combine", index, phase,
                        micro_batches, True, suffix,
                        waits=self._all_ranks(f"{p}.computed"),
                        signals=(f"{p}.combined",),
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
