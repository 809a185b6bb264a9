"""Measured per-iteration signals the control policy decides on.

FSMoE's thesis (PAPERS.md) is that scheduling decisions should be driven by
*measured* quantities, not model assumptions.  :class:`ControlSignals`
carries exactly what the policy reads about one finished iteration: the
strategy map it ran, its fault counters
(:class:`~repro.core.engine.IterationResult`), and per-block load
aggregates (:class:`BlockLoadSignals`) of the routing the next iteration
will run.  Everything here is pure post-hoc numpy bookkeeping — nothing
touches the simulation clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

import numpy as np

__all__ = ["BlockLoadSignals", "ControlSignals"]


@dataclass(frozen=True)
class BlockLoadSignals:
    """Load aggregates for one MoE block's routing matrix.

    Machine-level quantities use the engine's contiguous round-robin
    placement (worker ``r`` owns experts ``[r*E, (r+1)*E)``); cross-machine
    token counts exclude intra-machine traffic, which never touches a NIC.
    """

    block: int
    num_experts: int
    experts_per_worker: int
    tokens_total: int
    # Fraction of all routed token-slots each expert received.
    expert_share: np.ndarray = field(repr=False)
    # max / mean of tokens received per owner machine.
    machine_imbalance: float = 1.0
    # Tokens the hottest rank must compute (paces synchronous All-to-All).
    max_rank_recv: int = 0
    # Max over machines of max(cross-machine tokens in, out) — the NIC
    # bottleneck an All-to-All dispatch of this block would hit.
    a2a_bottleneck_tokens: int = 0
    # Per machine: distinct external experts its workers route tokens to
    # (the data-centric fetch set).
    external_demand: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    # Mean (over ranks) number of experts with >0 routed tokens — the
    # kernel-launch count a data-centric worker pays.
    active_experts_per_rank: float = 0.0

    @property
    def max_external_count(self) -> int:
        """Largest per-machine external fetch set (paces DC fetching)."""
        return max(map(len, self.external_demand.values()), default=0)

    @classmethod
    def from_block(cls, block, layout) -> "BlockLoadSignals":
        """Aggregate one :class:`~repro.core.workload.BlockWorkload`."""
        routing = block.routing
        num_experts = block.num_experts
        world = layout.world_size
        machines = layout.num_machines
        per_machine = layout.workers_per_machine
        experts_per_worker = num_experts // world

        recv = routing.sum(axis=0)                       # (E,) per expert
        total = int(recv.sum())
        rank_recv = recv.reshape(world, experts_per_worker).sum(axis=1)
        machine_recv = rank_recv.reshape(machines, per_machine).sum(axis=1)

        # Machine-granularity dispatch matrix S[src, dst] = tokens ranks of
        # ``src`` route to experts owned by machine ``dst``.
        by_src_machine = routing.reshape(
            machines, per_machine, num_experts
        ).sum(axis=1)
        experts_per_machine = experts_per_worker * per_machine
        dispatch = by_src_machine.reshape(
            machines, machines, experts_per_machine
        ).sum(axis=2)
        cross = dispatch - np.diag(np.diag(dispatch))
        out_tokens = cross.sum(axis=1)
        in_tokens = cross.sum(axis=0)
        bottleneck = int(np.maximum(out_tokens, in_tokens).max(initial=0))

        owner_machine = (
            np.arange(num_experts) // experts_per_worker
        ) // per_machine
        external_demand: Dict[int, FrozenSet[int]] = {}
        for machine in range(machines):
            needed = np.flatnonzero(
                (by_src_machine[machine] > 0) & (owner_machine != machine)
            )
            external_demand[machine] = frozenset(int(e) for e in needed)

        mean_machine_recv = float(machine_recv.mean())
        return cls(
            block=block.index,
            num_experts=num_experts,
            experts_per_worker=experts_per_worker,
            tokens_total=total,
            expert_share=recv / max(1, total),
            machine_imbalance=(
                float(machine_recv.max()) / mean_machine_recv
                if mean_machine_recv > 0 else 1.0
            ),
            max_rank_recv=int(rank_recv.max(initial=0)),
            a2a_bottleneck_tokens=bottleneck,
            external_demand=external_demand,
            active_experts_per_rank=float((routing > 0).sum(axis=1).mean()),
        )


@dataclass(frozen=True)
class ControlSignals:
    """Everything one control step sees about the finished iteration."""

    iteration: int
    strategies: Dict[int, str]
    blocks: Dict[int, BlockLoadSignals]
    fault_stats: Optional[object] = None

    @property
    def fault_clean(self) -> bool:
        """No fault symptom was observed cluster-wide this iteration.

        This is the fault arm's recovery signal.  It is necessarily
        *indirect*: a block already degraded to expert-centric issues no
        pull requests, so its own counters stay silent even while the fault
        rages — but any block still pulling (or any gradient push) would
        have tripped these counters.  Recovery is therefore probation-based:
        a clean streak earns a *trial* return to the preferred paradigm, and
        re-degrading during probation doubles the required streak.
        """
        stats = self.fault_stats
        if stats is None:
            return True
        return (
            stats.dropped_messages == 0
            and stats.stale_fallbacks == 0
            and stats.grad_failures == 0
        )

    @classmethod
    def harvest(cls, result, workload, iteration: int) -> "ControlSignals":
        """Build signals from one iteration's result and the workload's
        current (already drifted) routing."""
        layout = workload.layout
        return cls(
            iteration=iteration,
            strategies=dict(result.strategies),
            blocks={
                block.index: BlockLoadSignals.from_block(block, layout)
                for block in workload.moe_blocks()
            },
            fault_stats=result.fault_stats,
        )
