"""The timed MoE training engine.

Simulates one training iteration of an MoE model on the cluster.  The
iteration is a task graph (:mod:`repro.core.taskgraph`) run one simkit
process per lane.  Dense compute sits on the per-rank worker lanes; every
MoE block contributes the tasks and lanes of the
:class:`~repro.core.strategies.BlockStrategy` named by the per-block
strategy map.  The built-in strategies are:

* **expert-centric** blocks are bulk-synchronous: all workers rendezvous,
  run the dispatch All-to-All, compute their resident experts on the
  received tokens, and run the combine All-to-All (this is the
  Tutel-equivalent baseline, and the expert-centric mode of unified Janus);
* **data-centric** blocks run through the Janus Task Queue: per-worker
  Intra-Node Schedulers pull experts (credit-gated, optionally staggered and
  peer-scheduled) while the per-machine Inter-Node Schedulers fetch external
  experts into the cache, and workers compute each expert as it arrives;
* **pipelined-ec** blocks split the All-to-Alls into token chunks so expert
  compute overlaps communication (Parm/FlowMoE-style pipeline scheduling).

The engine raises :class:`~repro.netsim.memory.OutOfMemoryError` when the
strategy mix's memory footprint exceeds GPU capacity (Fig. 16).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..cluster import Cluster, Device
from ..faults import FaultInjector, FaultStats, ResilienceConfig
from ..metrics import MetricsRegistry, collect_iteration_metrics
from ..netsim import Fabric
from ..simkit import AllOf, Environment
from ..trace import TraceRecorder
from .context import TRACE_WORKER, IterationContext, JanusFeatures
from .memory_model import check_fits, estimate_strategies
from .strategies import get_strategy, strategy_names
from .taskgraph import TaskKind, build_iteration_plan, run_lane
from .workload import IterationWorkload

__all__ = ["IterationResult", "JanusEngine"]


@dataclass
class IterationResult:
    """Timing and traffic outcome of one simulated iteration."""

    seconds: float
    trace: TraceRecorder
    nic_egress_bytes: np.ndarray       # per machine
    strategies: Dict[int, str] = field(default_factory=dict)
    features: JanusFeatures = field(default_factory=JanusFeatures)
    fault_stats: Optional[FaultStats] = None
    # Credit-buffer accounting (§5.1.1): final and minimum level per rank.
    credit_levels: Dict[int, float] = field(default_factory=dict)
    credit_min_levels: Dict[int, float] = field(default_factory=dict)
    # Scope of this iteration's spans inside ``trace`` (0 for a fresh
    # per-iteration recorder; the new_iteration() counter when the engine
    # shares one recorder across iterations).
    iteration: int = 0
    # Kernel events processed while simulating this iteration (wall-clock
    # benchmarking divides these by seconds-of-host-time for events/sec).
    sim_events: int = 0

    @property
    def all_to_all_seconds(self) -> float:
        """Union time spent inside All-to-All collectives."""
        return self.trace.busy_time("comm.a2a", iteration=self.iteration)

    @property
    def cross_node_gb_per_machine(self) -> float:
        return float(self.nic_egress_bytes.mean()) / 1e9

    @property
    def all_to_all_share(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.all_to_all_seconds / self.seconds


class JanusEngine:
    """Run simulated training iterations under a per-block strategy map."""

    def __init__(
        self,
        cluster: Cluster,
        workload: IterationWorkload,
        block_strategies,
        features: Optional[JanusFeatures] = None,
        check_memory: bool = True,
        machine_speed: Optional[Dict[int, float]] = None,
        compute_jitter: float = 0.0,
        jitter_seed: int = 0,
        fault_plan=None,
        resilience=None,
        controller=None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        """``block_strategies`` maps every MoE block index to the name of
        the strategy that executes it (see :func:`strategy_names`).

        ``machine_speed`` maps machine index -> relative compute speed
        (1.0 = nominal; 0.5 = a straggler at half speed).  Models the
        heterogeneous/straggling machines of §3.2: synchronous All-to-All
        is paced by the slowest participant, while data-centric pulls let
        fast machines proceed.

        ``compute_jitter`` adds multiplicative lognormal noise (sigma in
        log space) to every compute task.  Synchronous execution pays the
        *maximum* jitter at every barrier (sum of maxima over the
        iteration); asynchronous pipelines average it out and only the
        final weight-update barrier takes a maximum — the §3.2 "less
        synchronization" effect, measurable with this knob.

        ``fault_plan`` (:class:`~repro.faults.FaultPlan`) injects seeded,
        time-windowed faults into every iteration; it implies a default
        :class:`~repro.faults.ResilienceConfig` unless ``resilience`` is
        given explicitly (``resilience`` alone arms timeouts/retries with
        no injected faults).

        ``controller`` (:class:`~repro.control.Controller`) is the only way
        adaptation reaches the engine: before each iteration it advances
        the workload's drift process, after each iteration it harvests the
        result's signals and may re-pick per-block strategies and the
        expert replica map.  Its policy's fault arm (a
        :class:`~repro.faults.DegradationPolicy` handed to
        ``ControlPolicy``) moves blocks that keep blowing their pull
        deadlines to the fallback strategy.  With drift and faults off
        the controller is structurally inert and runs stay bit-identical.

        ``metrics`` (:class:`~repro.metrics.MetricsRegistry`) enables
        quantitative observability: live counters in the schedulers plus
        a post-run harvest per iteration.  Attaching a registry never
        changes simulated times.  ``trace`` shares one
        :class:`~repro.trace.TraceRecorder` across every iteration this
        engine runs (each iteration gets its own scope via
        ``new_iteration()``); by default each iteration records into a
        fresh recorder."""
        self.cluster = cluster
        self.workload = workload
        self.features = features if features is not None else JanusFeatures()
        self.check_memory = check_memory
        self.machine_speed = dict(machine_speed or {})
        for machine, speed in self.machine_speed.items():
            if not 0 <= machine < cluster.num_machines:
                raise ValueError(f"machine {machine} out of range")
            if speed <= 0:
                raise ValueError("machine speeds must be positive")
        if compute_jitter < 0:
            raise ValueError("compute_jitter must be non-negative")
        self.compute_jitter = compute_jitter
        self.jitter_seed = jitter_seed
        self._jitter_rng = None
        self.fault_plan = fault_plan
        self.resilience = resilience
        if self.resilience is None and fault_plan is not None and fault_plan:
            self.resilience = ResilienceConfig()
        self.controller = controller
        # Control-plane replica map (block -> expert -> machines); empty
        # unless a controller placed replicas.
        self.replicas: Dict[int, Dict[int, tuple]] = {}
        self.metrics = metrics
        self.trace_recorder = trace
        self.iterations_run = 0
        moe_indices = {b.index for b in workload.moe_blocks()}
        if set(block_strategies) != moe_indices:
            raise ValueError(
                "block_strategies must cover exactly the MoE blocks "
                f"{sorted(moe_indices)}, got {sorted(block_strategies)}"
            )
        for index in moe_indices:
            # An uneven expert split has no placement: fail here, not at
            # the first iteration.
            workload.placement(index)
        for name in block_strategies.values():
            get_strategy(name)  # raises when unknown
        self.block_strategies: Dict[int, str] = dict(block_strategies)

    def _rank_flops(self, rank: int) -> float:
        """Effective FLOPs of the GPU hosting ``rank``, incl. stragglers."""
        base = self.cluster.spec.gpu.effective_flops(
            self.workload.config.hidden_dim
        )
        machine = self.workload.layout.machine_of(rank)
        return base * self.machine_speed.get(machine, 1.0)

    def _jittered(self, seconds: float) -> float:
        """Apply multiplicative compute jitter to a task duration."""
        if self.compute_jitter <= 0 or seconds <= 0:
            return seconds
        return float(
            seconds * self._jitter_rng.lognormal(0.0, self.compute_jitter)
        )

    # -- public API ----------------------------------------------------------------

    def _prepare(self, trace=None):
        """Build the per-iteration world: environment, fabric, fault
        machinery, strategies and context.  Shared by :meth:`run_iteration`
        and :meth:`build_graph`."""
        env = Environment()
        fabric = Fabric(env, self.cluster)
        if trace is None:
            if self.trace_recorder is not None:
                trace = self.trace_recorder
                if self.iterations_run:
                    trace.new_iteration()
            else:
                trace = TraceRecorder()
        fault_stats = None
        if self.fault_plan is not None or self.resilience is not None:
            fault_stats = FaultStats()
        if self.fault_plan is not None and self.fault_plan:
            FaultInjector(
                self.fault_plan, fabric, trace=trace, stats=fault_stats
            ).install()
        blocks_by_name: Dict[str, List[int]] = {}
        for index in sorted(self.block_strategies):
            name = self.block_strategies[index]
            blocks_by_name.setdefault(name, []).append(index)
        # Instantiate in strategy-table order: it fixes the relative order
        # of the strategies' service lanes (determinism).
        strategies = {
            name: get_strategy(name)(self, tuple(blocks_by_name[name]))
            for name in strategy_names()
            if name in blocks_by_name
        }
        dc_blocks = sorted(
            index
            for name, strategy in strategies.items()
            if strategy.uses_task_queue
            for index in strategy.blocks
        )
        ctx = IterationContext(
            env, fabric, self.workload, self.features, trace,
            dc_blocks=dc_blocks,
            resilience=self.resilience,
            fault_stats=fault_stats,
            metrics=self.metrics,
            replicas=self.replicas,
        )
        self._spawn_replica_syncs(ctx, dc_blocks)
        runner = {
            index: strategies[name]
            for index, name in self.block_strategies.items()
        }
        return ctx, strategies, runner, fabric, fault_stats, trace

    def _spawn_replica_syncs(self, ctx, dc_blocks) -> None:
        """Spawn one background sync per (block, expert, replica machine).

        The replica serves the machine's cache at iteration start (the
        bounded-staleness copy the fetch chains rely on); the sync transfer
        refreshes it, paying real NIC bytes that contend with the
        iteration's other traffic.  No replicas -> no processes -> the
        driver is byte-for-byte the pre-control one.
        """
        if not self.replicas:
            return
        task_queue_blocks = set(dc_blocks)
        num_nics = self.cluster.spec.num_nics
        position = 0
        for block in sorted(self.replicas):
            if block not in task_queue_blocks:
                continue
            placement = ctx.placements[block]
            by_expert = self.replicas[block]
            for expert in sorted(by_expert):
                home = self.workload.layout.machine_of(placement.owner(expert))
                for machine in by_expert[expert]:
                    if machine == home:
                        continue
                    ctx.background_procs.append(
                        ctx.env.process(
                            self._replica_sync(
                                ctx, block, expert, home, machine,
                                position % num_nics,
                            ),
                            name=f"replica-sync[{block}:{expert}->{machine}]",
                        )
                    )
                    position += 1

    def _replica_sync(self, ctx, block, expert, home, machine, nic):
        yield ctx.iteration_start
        cached = ctx.cached_event(block, machine, expert)
        if not cached.triggered:
            cached.succeed()
        started = ctx.env.now
        flow = ctx.fabric.transfer(
            Device.host(home),
            Device.host(machine),
            self.workload.expert_bytes,
            nic_index=nic,
            tag=("replica-sync", block, machine, expert),
        )
        yield flow.done
        ctx.replica_syncs[machine] += 1
        ctx.trace.record(
            "comm.replica", started, ctx.env.now, block=block,
            detail=f"machine={machine} nic={nic} expert={expert}",
        )

    def run_iteration(self, forward_only: bool = False) -> IterationResult:
        """Simulate one iteration from a cold start; returns its result.

        ``forward_only=True`` simulates an inference pass (§9: the same
        communication design applies to serving): no backward sweep, no
        gradient return traffic.
        """
        if self.controller is not None:
            self.controller.prepare(self)
        if self.features.chunk_autotune:
            # Routing is fixed per iteration and produced before any MoE
            # communication, so the tuner sees this iteration's (already
            # drifted) load — the controller re-tunes between iterations
            # simply by this running again at the next iteration start.
            self._retune_chunks()
        if self.check_memory:
            self._check_memory()
        self._jitter_rng = np.random.default_rng(self.jitter_seed)
        ctx, strategies, runner, fabric, fault_stats, trace = self._prepare()
        env = ctx.env
        worker_procs, collector_procs = self._spawn_graph(
            ctx, strategies, runner, forward_only
        )

        def driver():
            ctx.iteration_start.succeed()
            yield AllOf(env, worker_procs)
            pending = (
                list(ctx.grad_delivered) + collector_procs
                + list(ctx.background_procs)
            )
            if pending:
                yield AllOf(env, pending)

        env.run(until=env.process(driver()))
        egress = np.array(
            [
                fabric.nic_bytes(machine, "out")
                for machine in range(self.cluster.num_machines)
            ]
        )
        result = IterationResult(
            seconds=env.now,
            trace=trace,
            nic_egress_bytes=egress,
            strategies=dict(self.block_strategies),
            features=self.features,
            fault_stats=fault_stats,
            credit_levels={
                rank: container.level
                for rank, container in ctx.credits.items()
            },
            credit_min_levels={
                rank: container.min_level
                for rank, container in ctx.credits.items()
            },
            iteration=trace.iteration,
            sim_events=env.events_processed,
        )
        if self.metrics is not None:
            collect_iteration_metrics(
                self.metrics, result, fabric, ctx,
                iteration=self.iterations_run,
            )
        self.iterations_run += 1
        return result

    def run(self, iterations: int = 1) -> List[IterationResult]:
        results = []
        for _ in range(iterations):
            result = self.run_iteration()
            results.append(result)
            # Between iterations: let the control plane, if any, adapt
            # the engine (fault and load arms, replication).
            if self.controller is not None:
                self.controller.observe(self, result)
        return results

    def set_block_chunks(self, overrides, micro_batches=None) -> None:
        """Re-point the chunked-EC chunk counts: per-block overrides (a
        mapping or pair tuple) plus an optional new global micro-batch M.
        The chunk tuner's actuation entry point; emits the
        ``control.chunk_tuning.*`` switch metrics."""
        previous = self.features
        updates = {"block_chunks": overrides}
        if micro_batches is not None:
            updates["micro_batches"] = micro_batches
        self.features = dataclasses.replace(previous, **updates)
        if self.metrics is None:
            return
        for block, chunks in self.features.block_chunks:
            self.metrics.set(
                "control.chunk_tuning.chunks", chunks, block=block
            )
            if previous.chunks_for(block) != chunks:
                self.metrics.inc("control.chunk_tuning.switches", block=block)
        if micro_batches is not None:
            self.metrics.set(
                "control.chunk_tuning.micro_batches", micro_batches
            )
            if previous.micro_batches != micro_batches:
                self.metrics.inc(
                    "control.chunk_tuning.switches", block="micro"
                )

    def _retune_chunks(self) -> None:
        """Re-pick per-block chunk counts (and the shared micro-batch M)
        for the upcoming iteration from its routing, via the control
        plane's measured-load cost model."""
        from ..control import tune_engine_chunks

        plan = tune_engine_chunks(self)
        self.set_block_chunks(plan.block_chunks, plan.micro_batches)
        if self.metrics is not None:
            self.metrics.inc("control.chunk_tuning.retunes")
            for block, seconds in plan.predicted_chunk_s:
                self.metrics.set(
                    "control.chunk_tuning.predicted_chunk_s", seconds,
                    block=block,
                )

    def set_block_strategy(self, block: int, name: str) -> None:
        """Re-point one MoE block at the strategy ``name``.  The control
        plane's actuation entry point."""
        if block not in self.block_strategies:
            raise ValueError(f"block {block} has no strategy to replace")
        get_strategy(name)  # raises when unknown
        self.block_strategies[block] = name

    def run_inference(self) -> IterationResult:
        """Simulate one forward-only (serving) pass."""
        return self.run_iteration(forward_only=True)

    # -- task-graph execution ----------------------------------------------------------

    def _spawn_graph(self, ctx, strategies, runner, forward_only: bool):
        """Spawn one simkit process per graph lane, in lane creation order
        (deterministic process and event ids)."""
        graph = build_iteration_plan(self, ctx, strategies, runner,
                                     forward_only)
        observer = self._task_observer(ctx)
        env = ctx.env
        arbiters = None
        if self.features.a2a_stagger != "off":
            # Intra-A2A chunk scheduling: one slot models the striped NIC
            # fabric (a hierarchical All-to-All already uses every NIC of
            # a machine), so concurrent chunks serialize at line rate in
            # claim-priority order instead of superposing.
            from ..simkit import PriorityResource
            from .taskgraph import NIC_FABRIC_RESOURCE

            arbiters = {NIC_FABRIC_RESOURCE: PriorityResource(env)}
        worker_procs, collector_procs = [], []
        for lane in graph.lanes:
            proc = env.process(
                run_lane(graph, lane, observer, arbiters),
                name=lane.name, priority=lane.priority,
            )
            if lane.role == "worker":
                worker_procs.append(proc)
            elif lane.role == "collector":
                collector_procs.append(proc)
        return worker_procs, collector_procs

    def _task_observer(self, ctx):
        """Per-task completion hook, the only source of a task's spans:
        the ``compute.*``/``comm.*`` span the task names (``task.span``)
        and its ``task.*`` span, for the trace worker's tasks and the
        global service/collector tasks, plus per-kind count/seconds
        counters.  Pure Python bookkeeping — never changes simulated
        time."""
        metrics = self.metrics
        trace = ctx.trace
        # Per-block per-chunk A2A timing feeds the tuner's predicted-vs-
        # measured report; only booked under tuning so default-features
        # runs keep their exact golden metric key sets.
        chunk_metrics = metrics is not None and self.features.chunk_autotune

        def observe(task, started: float, ended: float) -> None:
            kind = task.kind.value
            if metrics is not None:
                metrics.inc("task.count", kind=kind)
                metrics.inc("task.seconds", ended - started, kind=kind)
                if (
                    chunk_metrics
                    and task.kind is TaskKind.A2A_CHUNK
                    and task.block is not None
                ):
                    metrics.inc(
                        "control.chunk_tuning.measured_chunks",
                        block=task.block,
                    )
                    metrics.inc(
                        "control.chunk_tuning.measured_chunk_s",
                        ended - started, block=task.block,
                    )
            worker = task.worker
            if worker is None or worker == TRACE_WORKER:
                if task.span is not None:
                    trace.record(
                        task.span, started, ended,
                        worker=worker, block=task.block, detail=task.detail,
                    )
                trace.record(
                    f"task.{kind}", started, ended,
                    worker=worker, block=task.block, detail=task.detail,
                )

        return observe

    def build_graph(self, forward_only: bool = False):
        """Build (without running) the iteration's task graph — the object
        behind ``repro graph`` exports.  Uses a throwaway trace recorder so
        the engine's shared recorder is not advanced."""
        self._jitter_rng = np.random.default_rng(self.jitter_seed)
        ctx, strategies, runner, _, _, _ = self._prepare(trace=TraceRecorder())
        return build_iteration_plan(self, ctx, strategies, runner,
                                    forward_only)

    # -- setup helpers ----------------------------------------------------------------

    def _check_memory(self) -> None:
        counts: Dict[str, int] = {}
        for name in self.block_strategies.values():
            counts[name] = counts.get(name, 0) + 1
        estimate = estimate_strategies(
            self.workload.config,
            self.workload.world_size,
            counts,
            credit_size=self.features.credit_size,
            # Conservative: the block running the fewest chunks holds the
            # largest transient dispatch/combine buffers.
            pipeline_chunks=self.features.min_pipeline_chunks,
        )
        check_fits(estimate, self.cluster.spec.gpu.memory_bytes)
