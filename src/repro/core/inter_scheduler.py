"""Inter-Node Scheduler: the per-machine half of the Janus Task Queue.

Sits in host (CPU) memory (§4).  In the forward phase it pulls every
external expert the machine's workers need from its home machine over the
RDMA NICs — once per (machine, expert), the hierarchical cache of §5.1.2 —
and announces it through the Cache Manager events.  In the backward phase it
collects the local workers' gradient contributions for each pulled expert,
pre-reduces them, and pushes a single gradient payload back to the expert's
home machine.

Both losable legs — the pull request and the gradient push — wait through
:func:`~repro.faults.retry_flow`, armed or not, and every retry, stale
fallback and lost gradient is booked through
:meth:`~repro.core.context.IterationContext.book_fault`.
"""

from __future__ import annotations

from typing import List

from ..faults import flow_or_timeout, retry_flow
from ..simkit import AnyOf
from .context import IterationContext

__all__ = ["InterNodeScheduler"]

_INF = float("inf")


class InterNodeScheduler:
    """Cross-machine expert fetching and gradient return for one machine."""

    def __init__(self, ctx: IterationContext, machine: int):
        self.ctx = ctx
        self.machine = machine
        self.metrics = ctx.metrics
        self.host = ctx.host_of[machine]
        spec = ctx.fabric.cluster.spec
        self.num_nics = spec.num_nics
        self.socket_overhead = spec.socket_overhead

    def _account_fetch(
        self, nic: int, block: int, expert: int, started: float
    ) -> None:
        """Book one completed cross-machine cache fill (observation only)."""
        ctx = self.ctx
        now = ctx.env.now
        if self.metrics is not None:
            self.metrics.inc("fetch.issued", machine=self.machine)
            self.metrics.observe("fetch.latency_s", now - started)
        ctx.trace.record(
            "comm.fetch", started, now, block=block,
            detail=f"machine={self.machine} nic={nic} expert={expert}",
        )

    # -- forward: hierarchical fetch ------------------------------------------------

    def fetch_pipelines(self):
        """One sequential fetch chain per NIC (fine-grained §5.1 pulls)."""
        assignments: List[List[tuple]] = [[] for _ in range(self.num_nics)]
        position = 0
        for block in self.ctx.block_order("fwd"):
            for expert in self._external_order(block):
                assignments[position % self.num_nics].append((block, expert))
                position += 1
        return [
            self._fetch_chain(nic, tasks)
            for nic, tasks in enumerate(assignments)
            if tasks
        ]

    def _external_order(self, block: int) -> List[int]:
        """Order of cross-machine pulls for one block.

        Topology-aware: stagger source machines the same way Algorithm 1
        staggers source GPUs, so the n machines do not all hammer machine 0's
        NICs first.  Otherwise: plain ascending expert id.
        """
        ctx = self.ctx
        experts = ctx.machine_external_experts(block, self.machine)
        if ctx.replicas:
            # Replicated experts are served from the machine-local replica
            # (announced at iteration start; refreshed by the background
            # sync), so the forward fetch chain skips them.  Gradients are
            # untouched: grad_collectors still push every external expert's
            # gradient home.
            experts = [
                expert
                for expert in experts
                if not ctx.replicated_on(block, expert, self.machine)
            ]
        if not ctx.features.topology_aware:
            return experts
        placement = ctx.placements[block]
        num_machines = ctx.layout.num_machines

        def key(expert: int):
            owner_machine = ctx.layout.machine_of(placement.owner(expert))
            return ((owner_machine - self.machine) % num_machines, expert)

        return sorted(experts, key=key)

    def _fetch_chain(self, nic: int, tasks: List[tuple]):
        """Pull ``tasks`` one after another over NIC ``nic``.

        Each pull is the §6 primitive: a pull request travels to the
        expert's home machine over the socket (latency only), then the
        payload rides the RDMA data plane back.  Under
        :class:`~repro.faults.ResilienceConfig` the request leg retries
        with backoff and both legs honour the per-block deadline; a pull
        that gives up falls back to the machine-cached stale expert copy
        for this iteration instead of deadlocking the pipeline.
        """
        ctx = self.ctx
        env = ctx.env
        res = ctx.resilience
        for block, expert in tasks:
            yield self._fetch_gate(block)
            started = env.now
            owner = ctx.placements[block].owner(expert)
            home = ctx.host_of[ctx.layout.machine_of(owner)]

            def request():
                return ctx.fabric.transfer(
                    self.host, home, 0.0, nic_index=nic,
                    tag=("pull-request", block, self.machine, expert),
                )

            deadline = _INF
            if res is not None and res.block_deadline is not None:
                began = ctx.block_fetch_began.setdefault(
                    (self.machine, block), env.now
                )
                deadline = began + res.block_deadline
            fetched = False
            if (yield from retry_flow(
                env, res, request,
                lambda: ctx.book_fault(
                    "retry", block, expert, machine=self.machine
                ),
                deadline,
            )) is not None:
                yield env.timeout(self.socket_overhead)
                flow = ctx.fabric.transfer(
                    home, self.host, ctx.workload.expert_bytes,
                    nic_index=nic,
                    tag=("fetch-external", block, self.machine, expert),
                )
                if deadline == _INF:
                    yield flow.done
                else:
                    yield flow_or_timeout(
                        env, flow, max(deadline - env.now, 0.0)
                    )
                # A degraded link may keep the payload in flight past the
                # deadline; the bytes still move (wasted traffic) but the
                # block stops waiting for them.
                fetched = flow.done.triggered
            if fetched:
                ctx.cache_fills[self.machine] += 1
                self._account_fetch(nic, block, expert, started)
            else:
                ctx.book_fault(
                    "fallback", block, expert, machine=self.machine,
                    failure=(self.host, home, ("fetch", block, expert)),
                )
            cached = ctx.cached_event(block, self.machine, expert)
            if not cached.triggered:
                cached.succeed()

    def _fetch_gate(self, block: int):
        """Fetching may start at iteration start (prefetch) or when the
        first local worker enters the block."""
        ctx = self.ctx
        if ctx.features.prefetch:
            return ctx.iteration_start
        entries = [
            ctx.block_entry[("fwd", block, rank)]
            for rank in ctx.layout.ranks_of_machine(self.machine)
        ]
        return AnyOf(ctx.env, entries)

    # -- backward: gradient pre-reduction -------------------------------------------

    def grad_collectors(self):
        """One collector per (block, external expert): wait for every local
        contribution, pre-reduce, send one payload home."""
        processes = []
        for block in self.ctx.block_order("bwd"):
            for expert in self.ctx.machine_external_experts(block, self.machine):
                contributors = self._contributor_count(block, expert)
                if contributors:
                    processes.append(
                        self._collect_and_push(block, expert, contributors)
                    )
        return processes

    def _contributor_count(self, block: int, expert: int) -> int:
        return sum(
            1
            for rank in self.ctx.layout.ranks_of_machine(self.machine)
            if expert in self.ctx.needed_external(block, rank)
        )

    def _collect_and_push(self, block: int, expert: int, contributors: int):
        ctx = self.ctx
        store = ctx.grad_contrib_store(block, self.machine, expert)
        for _ in range(contributors):
            yield store.get()
        owner = ctx.placements[block].owner(expert)
        owner_machine = ctx.layout.machine_of(owner)
        nic = expert % self.num_nics

        def push():
            return ctx.fabric.transfer(
                self.host,
                ctx.host_of[owner_machine],
                ctx.workload.expert_bytes,
                nic_index=nic,
                tag=("grad-push", block, self.machine, expert),
            )

        if (yield from retry_flow(
            ctx.env, ctx.resilience, push,
            lambda: ctx.book_fault(
                "retry", block, expert, machine=self.machine
            ),
            push=True,
        )) is None:
            # Gradient lost for this iteration (real systems skip or
            # re-apply next step); record it rather than stalling the
            # barrier.
            ctx.book_fault("grad_lost", block, expert, machine=self.machine)
