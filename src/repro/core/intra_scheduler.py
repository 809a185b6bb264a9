"""Intra-Node Scheduler: the per-worker half of the Janus Task Queue.

Each worker has one Intra-Node Scheduler (§4) running a block-ordered pull
pipeline implementing the two-stage strategy of §5.2 (Fig. 6): per MoE
block, stage 1 pulls machine-local experts GPU-to-GPU over NVLink (in
Algorithm 1's staggered order when topology awareness is on), then stage 2
copies the machine-cached external experts from CPU memory into the GPU
(with the PCIe-switch peer schedule when topology awareness is on).  The
cross-machine half of stage 1 — filling the CPU cache over the NICs — runs
in parallel in the Inter-Node Scheduler.

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
from ..faults import PullFailedError, retry_flow
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

    def moe_blocks(self, phase: str) -> List[int]:
        indices = list(self.ctx.dc_block_indices)
        return indices if phase == "fwd" else list(reversed(indices))

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
        followed by stage-2 copies of cached external experts (Fig. 6)."""
        for block in self.moe_blocks(phase):
            yield self.ctx.fetch_start_event(phase, block, self.rank)
            yield from self._internal_stage(phase, block)
            yield from self._external_stage(phase, block)

    # -- stage 1: internal pulls ------------------------------------------------

    def _internal_stage(self, phase: str, block: int):
        """Pull machine-local experts over NVLink (forward) or re-stage them
        from host memory over PCIe (backward, after the forward offload)."""
        ctx = self.ctx
        for expert in self._internal_order(block):
            yield ctx.credits[self.rank].get(1)
            started = ctx.env.now
            if phase == "fwd":
                owner = ctx.placements[block].owner(expert)
                flow = ctx.fabric.transfer(
                    ctx.gpu_of[owner],
                    ctx.gpu_of[self.rank],
                    ctx.workload.expert_bytes,
                    tag=("pull-internal", block, self.rank, expert),
                )
            else:
                flow = ctx.fabric.transfer(
                    self.host,
                    ctx.gpu_of[self.rank],
                    ctx.workload.expert_bytes,
                    tag=("pull-backward", block, self.rank, expert),
                )
            yield flow.done
            self._account_pull(
                "internal" if phase == "fwd" else "backward", block, started
            )
            ctx.mark_ready(phase, block, self.rank, expert)

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

    def _external_stage(self, phase: str, block: int):
        """Copies of externally cached experts into the GPU."""
        ctx = self.ctx
        needed = ctx.needed_external(block, self.rank)
        if not needed:
            return
        if not ctx.features.hierarchical:
            yield from self._direct_remote_pulls(phase, block, needed)
            return
        yield from self._staged_copies(phase, block, needed)

    def _direct_remote_pulls(self, phase: str, block: int, needed: List[int]):
        """No cache manager: every worker pulls remote experts itself.

        Under :class:`~repro.faults.ResilienceConfig` a forward pull
        retries with backoff; on give-up the expert is marked ready from
        the worker's stale local copy.  The credit taken here stays held
        either way and is released after compute, so the credit
        discipline is unchanged under faults."""
        ctx = self.ctx
        env = ctx.env
        res = ctx.resilience
        placement = ctx.placements[block]
        for expert in needed:
            yield ctx.credits[self.rank].get(1)
            started = env.now
            if phase == "fwd":
                owner = placement.owner(expert)

                def pull():
                    return ctx.fabric.transfer(
                        ctx.gpu_of[owner],
                        ctx.gpu_of[self.rank],
                        ctx.workload.expert_bytes,
                        tag=("pull-direct", block, self.rank, expert),
                    )

                if res is None:
                    yield pull().done
                elif (yield from retry_flow(
                    env, res, pull, res.pull_timeout,
                    lambda: self._count_retry(block, expert),
                )) is None:
                    self._stale_fallback(block, expert, owner)
                kind = "direct"
            else:
                yield ctx.fabric.transfer(
                    self.host,
                    ctx.gpu_of[self.rank],
                    ctx.workload.expert_bytes,
                    tag=("pull-backward", block, self.rank, expert),
                ).done
                kind = "backward"
            self._account_pull(kind, block, started)
            ctx.mark_ready(phase, block, self.rank, expert)

    def _count_retry(self, block: int, expert: int) -> None:
        ctx = self.ctx
        if ctx.fault_stats is not None:
            ctx.fault_stats.retries += 1
        now = ctx.env.now
        ctx.trace.record(
            "fault.retry", now, now, worker=self.rank, block=block,
            detail=f"expert={expert} direct",
        )

    def _stale_fallback(self, block: int, expert: int, owner: int) -> None:
        """Give up on the fresh copy: compute on the worker's stale local
        copy this iteration, or surface the failure."""
        ctx = self.ctx
        res = ctx.resilience
        if res.on_failure == "raise":
            raise PullFailedError(
                ctx.gpu_of[self.rank], ctx.gpu_of[owner],
                ("direct", block, expert), res.max_retries + 1,
            )
        if ctx.fault_stats is not None:
            ctx.fault_stats.count_fallback(block)
        now = ctx.env.now
        ctx.trace.record(
            "fault.fallback", now, now, worker=self.rank, block=block,
            detail=f"expert={expert} stale",
        )
        ctx.trace.mark(
            "fault.fallback", now, worker=self.rank, block=block, expert=expert
        )

    def _staged_copies(self, phase: str, block: int, needed: List[int]):
        ctx = self.ctx
        machine_cached = ctx.machine_external_experts(block, self.machine)
        peer_needed = (
            set(ctx.needed_external(block, self.peer_rank))
            if self.peer_rank is not None
            else set()
        )
        use_peer_scheme = (
            phase == "fwd"
            and ctx.features.topology_aware
            and self.peer_rank is not None
        )
        schedule = pcie_peer_schedule(
            machine_cached, self.local_rank, enabled=use_peer_scheme
        )
        needed_set = set(needed)
        for step in schedule:
            if step.expert not in needed_set:
                continue
            via_peer = (
                step.via == "peer"
                and use_peer_scheme
                and step.expert in peer_needed
            )
            if phase == "fwd":
                self._account_cache_request(block, step.expert)
                yield ctx.cached_event(block, self.machine, step.expert)
            # Backward: the expert already sits in host memory from the
            # forward offload, so there is nothing to wait for.
            yield ctx.credits[self.rank].get(1)
            started = ctx.env.now
            if via_peer:
                yield ctx.ready_event("fwd", block, self.peer_rank, step.expert)
                flow = ctx.fabric.transfer(
                    ctx.gpu_of[self.peer_rank],
                    ctx.gpu_of[self.rank],
                    ctx.workload.expert_bytes,
                    tag=("pull-peer", block, self.rank, step.expert),
                )
            else:
                flow = ctx.fabric.transfer(
                    self.host,
                    ctx.gpu_of[self.rank],
                    ctx.workload.expert_bytes,
                    tag=("pull-pcie", block, self.rank, step.expert),
                )
            yield flow.done
            if phase == "fwd":
                kind = "peer" if via_peer else "pcie"
            else:
                kind = "backward"
            self._account_pull(kind, block, started)
            ctx.mark_ready(phase, block, self.rank, step.expert)

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
