"""Intra-Node Scheduler: the per-worker half of the Janus Task Queue.

Each worker has one Intra-Node Scheduler (§4) running a block-ordered pull
pipeline implementing the two-stage strategy of §5.2 (Fig. 6): per MoE
block, stage 1 pulls machine-local experts GPU-to-GPU over NVLink (in
Algorithm 1's staggered order when topology awareness is on), then stage 2
copies the machine-cached external experts from CPU memory into the GPU
(with the PCIe-switch peer schedule when topology awareness is on).  The
cross-machine half of stage 1 — filling the CPU cache over the NICs — runs
in parallel in the Inter-Node Scheduler.  Without the cache (the
``hierarchical=False`` ablation) stage 2 is the worker's own direct pulls,
each waited on through :func:`~repro.faults.retry_flow` and booked through
:meth:`~repro.core.context.IterationContext.book_fault` on give-up.  The
backward sweep re-stages every needed expert from host memory, where the
forward offload left it, in one loop and in the forward's stage order.

Every pull consumes one credit of the worker's credit-based buffer
(§5.1.1); the worker releases the credit after it finishes computing on the
expert.  The pipeline is strictly block-ordered, so credits are only ever
held by fetched-but-unconsumed experts of the earliest unfinished block:
prefetching ahead can never starve the block the worker is computing, which
makes the credit discipline deadlock-free.
"""

from __future__ import annotations

from typing import List

from ..cluster import Device
from ..faults import retry_flow
from .context import TRACE_WORKER, IterationContext
from .priority import internal_pull_order, pcie_peer_schedule

__all__ = ["IntraNodeScheduler"]


class IntraNodeScheduler:
    """Pull pipeline for one worker."""

    def __init__(self, ctx: IterationContext, rank: int):
        self.ctx = ctx
        self.rank = rank
        self.metrics = ctx.metrics
        self.machine = ctx.layout.machine_of(rank)
        self.local_rank = ctx.layout.local_rank_of(rank)
        self.host = Device.host(self.machine)
        layout = ctx.layout
        peer_local = self.local_rank ^ 1
        self.peer_rank = (
            layout.ranks_of_machine(self.machine)[peer_local]
            if peer_local < layout.workers_per_machine
            else None
        )

    def _account_pull(self, kind: str, block: int, started: float) -> None:
        """Book one completed pull: counter + latency histogram + a trace
        span on the traced worker's ``comm.pull`` lane.  Pure observation —
        never touches the simulation clock."""
        ctx = self.ctx
        now = ctx.env.now
        if self.metrics is not None:
            self.metrics.inc("pull.issued", kind=kind)
            self.metrics.observe("pull.latency_s", now - started, kind=kind)
        if self.rank == TRACE_WORKER:
            ctx.trace.record(
                "comm.pull", started, now,
                worker=self.rank, block=block, detail=kind,
            )

    def pull_pipeline(self, phase: str):
        """The worker's pull queue: per block, stage-1 internal NVLink pulls
        followed by stage-2 copies of cached external experts (Fig. 6);
        backward, one host-to-GPU re-stage per needed expert."""
        ctx = self.ctx
        rank = self.rank
        for block in ctx.block_order(phase):
            yield ctx.fetch_start_event(phase, block, rank)
            if phase == "bwd":
                for expert in (
                    self._internal_order(block)
                    + ctx.needed_external(block, rank)
                ):
                    yield ctx.credits[rank].get(1)
                    started = ctx.env.now
                    yield ctx.fabric.transfer(
                        self.host,
                        ctx.gpu_of[rank],
                        ctx.workload.expert_bytes,
                        tag=("pull-backward", block, rank, expert),
                    ).done
                    self._account_pull("backward", block, started)
                    ctx.mark_ready(phase, block, rank, expert)
                continue
            yield from self._internal_stage(block)
            needed = ctx.needed_external(block, rank)
            if not needed:
                continue
            if ctx.features.hierarchical:
                yield from self._staged_copies(block, needed)
            else:
                yield from self._direct_remote_pulls(block, needed)

    # -- stage 1: internal pulls ------------------------------------------------

    def _internal_stage(self, block: int):
        """Pull machine-local experts GPU-to-GPU over NVLink."""
        ctx = self.ctx
        placement = ctx.placements[block]
        for expert in self._internal_order(block):
            yield ctx.credits[self.rank].get(1)
            started = ctx.env.now
            yield ctx.fabric.transfer(
                ctx.gpu_of[placement.owner(expert)],
                ctx.gpu_of[self.rank],
                ctx.workload.expert_bytes,
                tag=("pull-internal", block, self.rank, expert),
            ).done
            self._account_pull("internal", block, started)
            ctx.mark_ready("fwd", block, self.rank, expert)

    def _internal_order(self, block: int) -> List[int]:
        ctx = self.ctx
        placement = ctx.placements[block]
        experts_per_worker = placement.experts_per_worker
        machine_ranks = ctx.layout.ranks_of_machine(self.machine)
        base = machine_ranks[0] * experts_per_worker
        slots = internal_pull_order(
            self.local_rank,
            ctx.layout.workers_per_machine,
            experts_per_worker,
            staggered=ctx.features.topology_aware,
        )
        needed = set(ctx.needed_internal(block, self.rank))
        return [base + slot for slot in slots if base + slot in needed]

    # -- stage 2: external copies -------------------------------------------------

    def _direct_remote_pulls(self, block: int, needed: List[int]):
        """No cache manager: every worker pulls remote experts itself.

        Under :class:`~repro.faults.ResilienceConfig` a pull retries with
        backoff; on give-up the expert is marked ready from the worker's
        stale local copy.  The credit taken here stays held either way and
        is released after compute, so the credit discipline is unchanged
        under faults."""
        ctx = self.ctx
        rank = self.rank
        placement = ctx.placements[block]
        for expert in needed:
            yield ctx.credits[rank].get(1)
            started = ctx.env.now
            owner = placement.owner(expert)

            def pull():
                return ctx.fabric.transfer(
                    ctx.gpu_of[owner],
                    ctx.gpu_of[rank],
                    ctx.workload.expert_bytes,
                    tag=("pull-direct", block, rank, expert),
                )

            if (yield from retry_flow(
                ctx.env, ctx.resilience, pull,
                lambda: ctx.book_fault("retry", block, expert, worker=rank),
            )) is None:
                ctx.book_fault(
                    "fallback", block, expert, worker=rank, failure=(
                        ctx.gpu_of[rank], ctx.gpu_of[owner],
                        ("direct", block, expert),
                    ),
                )
            self._account_pull("direct", block, started)
            ctx.mark_ready("fwd", block, rank, expert)

    def _staged_copies(self, block: int, needed: List[int]):
        """Copy the machine-cached experts into the GPU as the Inter-Node
        Scheduler announces them, alternating PCIe copies with NVLink
        copies from the pair peer when topology awareness is on (Fig. 9)."""
        ctx = self.ctx
        use_peer_scheme = (
            ctx.features.topology_aware and self.peer_rank is not None
        )
        peer_needed = (
            set(ctx.needed_external(block, self.peer_rank))
            if use_peer_scheme
            else set()
        )
        schedule = pcie_peer_schedule(
            ctx.machine_external_experts(block, self.machine),
            self.local_rank,
            enabled=use_peer_scheme,
        )
        needed_set = set(needed)
        for step in schedule:
            expert = step.expert
            if expert not in needed_set:
                continue
            self._account_cache_request(block, expert)
            yield ctx.cached_event(block, self.machine, expert)
            yield ctx.credits[self.rank].get(1)
            started = ctx.env.now
            if step.via == "peer" and expert in peer_needed:
                yield ctx.ready_event("fwd", block, self.peer_rank, expert)
                source, kind = ctx.gpu_of[self.peer_rank], "peer"
            else:
                source, kind = self.host, "pcie"
            yield ctx.fabric.transfer(
                source,
                ctx.gpu_of[self.rank],
                ctx.workload.expert_bytes,
                tag=("pull-" + kind, block, self.rank, expert),
            ).done
            self._account_pull(kind, block, started)
            ctx.mark_ready("fwd", block, self.rank, expert)

    def _account_cache_request(self, block: int, expert: int) -> None:
        """Cache-manager dedup accounting (§5.1.2): the first worker to
        ask for a (machine, block, expert) key is the miss that triggers
        the one cross-machine fetch; every later request is a hit served
        by the machine cache, saving one expert payload over the NICs."""
        ctx = self.ctx
        if self.metrics is None:
            return
        self.metrics.inc("cache.requests")
        key = (self.machine, block, expert)
        if key in ctx.cache_requested:
            self.metrics.inc("cache.hits")
            self.metrics.inc(
                "cache.dedup_bytes_saved", ctx.workload.expert_bytes
            )
        else:
            ctx.cache_requested.add(key)
            self.metrics.inc("cache.misses")
