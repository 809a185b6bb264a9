"""Shared per-iteration state for the timed Janus engine.

One :class:`IterationContext` is created per simulated training iteration.
It owns the synchronization events that tie workers, intra-node schedulers
and inter-node schedulers together, and the per-worker credit buffers and
per-machine caches.  Expert readiness is tracked separately for the forward
sweep (phase ``"fwd"``) and the backward sweep (phase ``"bwd"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..cluster import Device
from ..domains import POSITIVE_INT, Choice, check_block_map, check_fields, domain
from ..faults import PullFailedError
from ..netsim import Fabric
from ..runtime.layout import ExpertPlacement
from ..simkit import Container, Environment, Event, Store
from ..trace import TraceRecorder
from .workload import IterationWorkload

__all__ = ["JanusFeatures", "IterationContext", "PHASES", "TRACE_WORKER"]

PHASES = ("fwd", "bwd")

#: The one rank whose tasks, pulls and block marks land on the trace's
#: worker lanes (service and collector tasks have no worker and are
#: always traced).
TRACE_WORKER = 0


@dataclass(frozen=True)
class JanusFeatures:
    """Feature flags for the data-centric engine (the §7.2 ablation axes).

    ``topology_aware`` enables Algorithm 1's staggered intra-node order and
    the PCIe-switch peer scheduling; ``prefetch`` starts expert pulls at
    iteration start instead of at MoE-block entry (§5.3); ``hierarchical``
    enables the per-machine cache + gradient pre-reduction (§5.1.2) —
    disabling it makes every worker pull remote experts itself (an extra
    ablation beyond the paper's).  ``credit_size`` is C of §5.1.1.
    """

    topology_aware: bool = True
    prefetch: bool = True
    hierarchical: bool = True
    credit_size: int = domain(POSITIVE_INT, 16)
    # Expert-centric blocks: Tutel-style hierarchical All-to-All (per
    # machine-pair aggregation striped over NICs) vs the naive flat
    # per-GPU-pair decomposition.
    hierarchical_a2a: bool = True
    # Pipelined expert-centric blocks: number of token chunks the dispatch
    # and combine All-to-Alls are split into, so expert compute on chunk i
    # overlaps the All-to-All of chunk i+1 (Parm/FlowMoE-style).
    ec_pipeline_chunks: int = domain(POSITIVE_INT, 4)
    # Task-graph scheduler: number of micro-batches M a micro-capable
    # strategy splits the global batch into (pipeline-parallel interleaving
    # of the per-block DAGs).  Inert unless a micro-capable strategy (e.g.
    # ``microbatch-ec``) is selected, so the default changes nothing.
    micro_batches: int = domain(POSITIVE_INT, 4)
    # Per-block chunk-count overrides for the chunked expert-centric
    # strategies (FSMoE-style cost-modelled chunk sizing): block index ->
    # chunk count.  Accepts a mapping at construction; normalized to a
    # sorted tuple of pairs so the dataclass stays hashable.  Blocks not
    # listed fall back to ``ec_pipeline_chunks``.  Empty = the legacy
    # single-M behaviour, bit-identical to pre-tuner builds.
    block_chunks: Tuple[Tuple[int, int], ...] = ()
    # Re-derive ``block_chunks`` (and ``micro_batches``) from the
    # iteration's measured routing via the control-plane cost model before
    # every iteration.  Off = never touch the fixed counts.
    chunk_autotune: bool = False
    # Intra-A2A chunk scheduling: "off" keeps the fluid model (concurrent
    # All-to-All chunks superpose, the fabric never arbitrates); "wave"
    # models the shared NIC fabric as an arbitrated resource with grants
    # in raw arrival order (the unscheduled baseline); "chain" arbitrates
    # the same fabric but staggers grants by schedule position, so a
    # congested NIC always serves the chunk feeding the critical path.
    a2a_stagger: str = domain(Choice(("off", "wave", "chain")), "off")
    # Backward dense-gradient all-reduce scheduling: "none" (not modelled,
    # the default), "serial" (one all-reduce sweep after every
    # worker finishes its backward), or "overlap" (per-block all-reduces
    # launched as soon as that block's backward dense compute retires,
    # filling idle link time behind later backward blocks).
    grad_allreduce: str = domain(Choice(("none", "serial", "overlap")), "none")

    def __post_init__(self):
        check_fields(self)
        if isinstance(self.block_chunks, Mapping):
            pairs = sorted(self.block_chunks.items())
        else:
            pairs = (tuple(pair) for pair in self.block_chunks)
        object.__setattr__(self, "block_chunks", tuple(pairs))
        check_block_map(self, "block_chunks", self.block_chunks)

    def chunks_for(self, block: int) -> int:
        """Chunk count for one block: the per-block override when the
        tuner (or a caller) set one, else the global fixed M."""
        for index, chunks in self.block_chunks:
            if index == block:
                return chunks
        return self.ec_pipeline_chunks

    @property
    def min_pipeline_chunks(self) -> int:
        """Smallest chunk count any block may run with — the conservative
        input to the memory model (fewer chunks = bigger transient
        dispatch/combine buffers)."""
        counts = [chunks for _, chunks in self.block_chunks]
        counts.append(self.ec_pipeline_chunks)
        return min(counts)


class IterationContext:
    """Events, buffers and caches for one simulated iteration."""

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        workload: IterationWorkload,
        features: JanusFeatures,
        trace: TraceRecorder,
        dc_blocks=None,
        resilience=None,
        fault_stats=None,
        metrics=None,
        replicas=None,
    ):
        """``dc_blocks``: MoE block indices served by the Janus Task Queue
        (and thus need the schedulers).  Defaults to every MoE block.

        ``replicas``: control-plane expert replica map
        (``block -> expert -> machines holding a replica``).  A replicated
        expert serves a machine's cache from the (bounded-staleness) local
        copy at iteration start, so the fetch chains skip it; a background
        replica-sync transfer pays the refresh bytes.  Empty/None keeps
        every code path byte-for-byte identical to the pre-control engine."""
        self.env = env
        self.fabric = fabric
        self.workload = workload
        self.features = features
        self.trace = trace
        # Resilience: None keeps the happy-path scheduler code byte-for-byte
        # (timings bit-identical to a no-fault build); a
        # :class:`~repro.faults.ResilienceConfig` arms timeouts/retries.
        self.resilience = resilience
        self.fault_stats = fault_stats
        # Optional MetricsRegistry.  Instrumented sites guard on ``None``
        # and only ever perform pure Python increments, so attaching a
        # registry cannot change simulated timing.
        self.metrics = metrics
        # (machine, block, expert) cache keys already requested by some
        # worker: first request per key is a miss, the rest are dedup hits.
        self.cache_requested = set()
        # First fetch start per (machine, block): anchors the block deadline.
        self.block_fetch_began: Dict[Tuple[int, int], float] = {}
        layout = workload.layout
        self.layout = layout
        cluster = fabric.cluster

        # Endpoint tables, built once: no flow constructs a Device.
        self.gpu_of: Dict[int, Device] = {
            rank: cluster.gpu_device(rank) for rank in range(layout.world_size)
        }
        self.host_of: Dict[int, Device] = {
            machine: Device.host(machine)
            for machine in range(layout.num_machines)
        }
        self.placements: Dict[int, ExpertPlacement] = {
            block.index: ExpertPlacement(block.num_experts, layout.world_size)
            for block in workload.blocks
            if block.is_moe
        }

        moe_indices = list(self.placements)
        self.dc_block_indices = sorted(
            moe_indices if dc_blocks is None else dc_blocks
        )
        if not set(self.dc_block_indices) <= set(moe_indices):
            raise ValueError("dc_blocks must be a subset of the MoE blocks")
        world = layout.world_size

        # Worker r entered block b in each phase: gates non-prefetch fetching.
        self.block_entry: Dict[Tuple[str, int, int], Event] = {
            (phase, b, r): env.event()
            for phase in PHASES
            for b in moe_indices
            for r in range(world)
        }
        # Expert e ready in worker r's GPU: (phase, block, rank, expert).
        self._ready_event: Dict[Tuple[str, int, int, int], Event] = {}
        # Per (phase, block, worker) store of arrived experts.
        self._ready_store: Dict[Tuple[str, int, int], Store] = {}
        # Expert e resident in machine M's CPU cache: (block, machine, e).
        self._cached_event: Dict[Tuple[int, int, int], Event] = {}
        # Events that must complete before the iteration ends (grad arrival).
        self.grad_delivered: List[Event] = []
        # Per-machine stores feeding the gradient pre-reduce collectors.
        self._grad_contrib: Dict[Tuple[int, int, int], Store] = {}

        self.credits: Dict[int, Container] = {
            rank: Container(
                env, capacity=features.credit_size, init=features.credit_size
            )
            for rank in range(world)
        }
        self.cache_fills: Dict[int, int] = {
            m: 0 for m in range(layout.num_machines)
        }
        self.replicas: Dict[int, Dict[int, Tuple[int, ...]]] = {
            block: dict(experts) for block, experts in (replicas or {}).items()
        }
        # Completed background replica-sync transfers per machine.
        self.replica_syncs: Dict[int, int] = {
            m: 0 for m in range(layout.num_machines)
        }
        # Processes the iteration must drain besides workers/collectors
        # (replica syncs); empty unless the control plane placed replicas.
        self.background_procs: List = []

        self.iteration_start = env.event()
        # Routing is fixed for the whole iteration, so the needed_* helpers
        # are pure in (block, rank); memoize them — they sit on the pull
        # scheduling hot path.  Callers only iterate the lists.
        self._routing_cache: Dict[Tuple[str, int, int], List[int]] = {}

    # -- routing helpers -------------------------------------------------------

    def needed_experts(self, block_index: int, rank: int) -> List[int]:
        """Non-resident experts worker ``rank`` must obtain for the block."""
        key = ("need", block_index, rank)
        cached = self._routing_cache.get(key)
        if cached is None:
            block = self.workload.blocks[block_index]
            placement = self.placements[block_index]
            routing = block.routing[rank]
            cached = [
                expert
                for expert in range(block.num_experts)
                if routing[expert] > 0 and placement.owner(expert) != rank
            ]
            self._routing_cache[key] = cached
        return cached

    def needed_internal(self, block_index: int, rank: int) -> List[int]:
        key = ("int", block_index, rank)
        cached = self._routing_cache.get(key)
        if cached is None:
            placement = self.placements[block_index]
            machine = self.layout.machine_of(rank)
            cached = [
                expert
                for expert in self.needed_experts(block_index, rank)
                if self.layout.machine_of(placement.owner(expert)) == machine
            ]
            self._routing_cache[key] = cached
        return cached

    def needed_external(self, block_index: int, rank: int) -> List[int]:
        key = ("ext", block_index, rank)
        cached = self._routing_cache.get(key)
        if cached is None:
            placement = self.placements[block_index]
            machine = self.layout.machine_of(rank)
            cached = [
                expert
                for expert in self.needed_experts(block_index, rank)
                if self.layout.machine_of(placement.owner(expert)) != machine
            ]
            self._routing_cache[key] = cached
        return cached

    def own_experts_with_tokens(self, block_index: int, rank: int) -> List[int]:
        block = self.workload.blocks[block_index]
        placement = self.placements[block_index]
        return [
            expert
            for expert in placement.experts_of(rank)
            if block.routing[rank][expert] > 0
        ]

    def machine_external_experts(self, block_index: int, machine: int) -> List[int]:
        """External experts any worker of ``machine`` needs, ascending."""
        needed = set()
        for rank in self.layout.ranks_of_machine(machine):
            needed.update(self.needed_external(block_index, rank))
        return sorted(needed)

    def block_order(self, phase: str) -> List[int]:
        """The Task Queue's blocks in ``phase``'s sweep order: ascending
        forward, descending backward."""
        indices = self.dc_block_indices
        return indices if phase == "fwd" else indices[::-1]

    def replicated_on(self, block_index: int, expert: int, machine: int) -> bool:
        """Whether ``machine`` holds a control-plane replica of the expert."""
        by_block = self.replicas.get(block_index)
        if not by_block:
            return False
        return machine in by_block.get(expert, ())

    # -- event registries -----------------------------------------------------------

    def ready_event(self, phase: str, block: int, rank: int, expert: int) -> Event:
        key = (phase, block, rank, expert)
        if key not in self._ready_event:
            self._ready_event[key] = self.env.event()
        return self._ready_event[key]

    def ready_store(self, phase: str, block: int, rank: int) -> Store:
        key = (phase, block, rank)
        if key not in self._ready_store:
            self._ready_store[key] = Store(self.env)
        return self._ready_store[key]

    def cached_event(self, block: int, machine: int, expert: int) -> Event:
        key = (block, machine, expert)
        if key not in self._cached_event:
            self._cached_event[key] = self.env.event()
        return self._cached_event[key]

    def grad_contrib_store(self, block: int, machine: int, expert: int) -> Store:
        key = (block, machine, expert)
        if key not in self._grad_contrib:
            self._grad_contrib[key] = Store(self.env)
        return self._grad_contrib[key]

    def mark_ready(self, phase: str, block: int, rank: int, expert: int) -> None:
        event = self.ready_event(phase, block, rank, expert)
        if not event.triggered:
            event.succeed()
        self.ready_store(phase, block, rank).put(expert)
        if phase == "fwd":
            self.trace.mark(
                "expert_ready",
                self.env.now,
                worker=rank,
                block=block,
                expert=expert,
            )

    def book_fault(
        self, kind: str, block: int, expert: int, *,
        machine=None, worker=None, failure=None,
    ) -> None:
        """Book one fault outcome of a losable pull leg, for a machine's
        Inter-Node Scheduler or a worker's direct pull.

        ``kind`` is ``"retry"`` (a re-send), ``"fallback"`` (a pull gave
        up and the stale copy serves this iteration) or ``"grad_lost"`` (a
        gradient push gave up).  It is counted in the iteration's
        :class:`~repro.faults.FaultStats`, if any, and recorded as a
        zero-length ``fault.<kind>`` span plus a mark; a worker's retry is
        a span only, tagged ``direct``.  Under ``on_failure="raise"`` a
        fallback raises :class:`~repro.faults.PullFailedError` with
        ``failure``'s ``(requester, target, key)`` instead.
        """
        res = self.resilience
        if kind == "fallback" and res.on_failure == "raise":
            raise PullFailedError(*failure, res.max_retries + 1)
        stats = self.fault_stats
        if stats is not None:
            if kind == "retry":
                stats.retries += 1
            elif kind == "fallback":
                stats.count_fallback(block)
            else:
                stats.grad_failures += 1
        if worker is None:
            where = {"machine": machine}
            detail = f"machine={machine} expert={expert}"
        else:
            where = {"worker": worker}
            detail = f"expert={expert}"
        if kind == "fallback":
            detail += " stale"
        elif worker is not None:
            detail += " direct"
        now = self.env.now
        span = f"fault.{kind}"
        self.trace.record(
            span, now, now, worker=worker, block=block, detail=detail
        )
        if worker is None or kind == "fallback":
            self.trace.mark(span, now, **where, block=block, expert=expert)

    def fetch_start_event(self, phase: str, block: int, rank: int) -> Event:
        """When worker ``rank``'s fetching for ``block`` may begin."""
        if phase == "fwd" and self.features.prefetch:
            return self.iteration_start
        return self.block_entry[(phase, block, rank)]
