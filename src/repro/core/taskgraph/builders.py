"""Build the per-iteration task graph.

:func:`build_iteration_plan` turns one engine iteration into a
:class:`~repro.core.taskgraph.graph.TaskGraph` whose lanes are created in
process spawn order: worker lanes for ranks 0..W-1, then each strategy's
service lanes in strategy-table order, then gradient collectors and
all-reduce lanes.  The engine spawns ``graph.lanes`` in that order, so
process and event ids, and with them the order of same-instant events,
are deterministic.

Strategies contribute through three hooks (see
:class:`~repro.core.strategies.base.BlockStrategy`):

* ``worker_tasks``    — the tasks a worker lane runs for one block,
* ``service_lanes``   — coordinator/scheduler lanes,
* ``collector_lanes`` — gradient-collector lanes.

A ``micro_capable`` strategy's ``worker_tasks`` also take the micro-batch
``(m, M)`` and its ``service_lanes`` take ``M``.

On top of the per-block paradigms, this module owns the two schedules that
span blocks: **worker lanes** (``M`` lanes per rank whose block DAGs
interleave, so one micro-batch's expert compute overlaps another's
All-to-All across block boundaries; with M=1, the default when no
micro-capable strategy runs, each rank has one straight lane with plain
labels and no rendezvous gates) and the **backward-pass gradient
all-reduce** (per-block dense-gradient all-reduce lanes scheduled into
idle link time of the remaining backward sweep, at background dispatch
priority).
"""

from __future__ import annotations

from typing import Tuple

from ...models.flops import BACKWARD_MULTIPLIER
from ...netsim import all_reduce
from ..context import TRACE_WORKER
from .graph import TaskGraph
from .stagger import apply_a2a_stagger
from .task import ResourceClaim, Task, TaskKind

__all__ = ["build_iteration_plan"]


# -- labels ----------------------------------------------------------------


def entry_label(phase: str, index: int, rank: int) -> str:
    return f"entry.{phase}.b{index}.w{rank}"


def _bdense_label(index: int, rank: int, micro=None) -> str:
    label = f"grad-ready.b{index}.w{rank}"
    return label if micro is None else f"{label}.mb{micro}"


def _done_label(rank: int, micro=None) -> str:
    label = f"worker-done.w{rank}"
    return label if micro is None else f"{label}.mb{micro}"


def gpu_claim(rank: int) -> Tuple[ResourceClaim, ...]:
    """The per-GPU compute stream the fabric arbitrates (capacity 1)."""
    return (ResourceClaim(f"gpu.{rank}.stream"),)


# -- plan assembly ---------------------------------------------------------


def build_iteration_plan(
    engine, ctx, strategies, runner, forward_only: bool
) -> TaskGraph:
    """Assemble the full iteration graph, lanes in spawn order."""
    graph = TaskGraph(ctx.env)
    graph.bind("iteration_start", ctx.iteration_start)
    graph.declare_inputs("iteration_start")
    for (phase, index, rank), event in ctx.block_entry.items():
        label = entry_label(phase, index, rank)
        graph.bind(label, event)
        # Block-entry gates are consumed inside composite pull pipelines
        # (invisible to the structural view) or by nothing at all on
        # All-to-All blocks; either way they leave the graph.
        graph.declare_outputs(label)

    features = engine.features
    micro = (
        features.micro_batches
        if any(s.micro_capable for s in strategies.values())
        else 1
    )
    allreduce = "none" if forward_only else features.grad_allreduce

    for rank in range(engine.workload.world_size):
        for m in range(micro):
            _build_worker_lane(
                engine, ctx, graph, rank, m, micro, runner, forward_only,
                allreduce,
            )

    # The hooks create their lanes on ``graph``; that creation order is
    # the spawn order.
    for strategy in strategies.values():
        if strategy.micro_capable:
            strategy.service_lanes(ctx, graph, forward_only, micro)
        else:
            strategy.service_lanes(ctx, graph, forward_only)

    if not forward_only:
        for strategy in strategies.values():
            strategy.collector_lanes(ctx, graph)
        if allreduce != "none":
            _build_allreduce_lanes(engine, ctx, graph, micro)
    if features.a2a_stagger != "off":
        # Intra-A2A chunk scheduling (post-pass): model the shared NIC
        # fabric as an arbitrated resource so concurrent chunk sends
        # serialize at line rate — "wave" grants in raw arrival order,
        # "chain" staggers grants by schedule position.  Off by default —
        # the pass adds claims, so skipping it keeps graphs (and their
        # exports) byte-identical.
        apply_a2a_stagger(graph, features.a2a_stagger)
    return graph


# -- worker lanes ----------------------------------------------------------


def _dense_body(engine, ctx, gpu, block, mult, scale, rank_flops):
    """Dense (attention + non-expert FFN) compute for one block.

    ``mult`` is the backward factor, ``scale`` the 1/M micro-batch split;
    both are powers of two in practice, so ``mult * scale * base`` equals
    the unscaled ``mult * flops / rank_flops`` bit for bit.  ``rank_flops`` is
    hoisted to one :meth:`JanusEngine._rank_flops` call per lane — the
    lookup chain dominates graph-build time when resolved per block.
    """
    base = (block.dense_flops + block.ffn_flops) / rank_flops

    def body():
        seconds = engine._jittered(mult * scale * base)
        yield ctx.env.process(ctx.fabric.compute(gpu, seconds))

    return body


def _mark_body(ctx, rank, index):
    def body():
        ctx.trace.mark(
            "block_complete", ctx.env.now, worker=rank, block=index
        )

    return body


def _build_worker_lane(
    engine, ctx, graph, rank, m, micro, runner, forward_only, allreduce
):
    """Lane ``m`` of a rank's M worker lanes: the forward sweep, then the
    backward sweep in reverse block order.

    Every lane carries 1/M of the dense flops and of each micro-capable
    block's tokens; the shared per-GPU compute stream serializes the
    compute while the per-micro-batch All-to-Alls overlap it.  Blocks
    whose strategy is not micro-capable run at full batch on lane 0 with a
    rendezvous/release barrier across the rank's lanes.  With M=1 the lane
    is the rank's straight lane: no ``.mb0`` labels, no barrier gates.
    """
    workload = engine.workload
    gpu = ctx.gpu_of[rank]
    claims = gpu_claim(rank)
    rank_flops = engine._rank_flops(rank)
    scale = 1.0 / micro
    single = micro == 1
    tag = "" if single else f".mb{m}"
    suffix = "" if single else f":mb{m}"
    mb = None if single else m
    lane = graph.lane(f"worker.{rank}{tag}", role="worker", worker=rank)
    p = f"w{rank}{tag}"

    lane.add(Task(
        f"{p}.start", TaskKind.GATE, waits=("iteration_start",),
        worker=rank,
    ))

    def entry_task(block, phase):
        if m != 0:
            return
        index = block.index
        lane.add(Task(
            f"{p}.{phase}.b{index}.entry", TaskKind.GATE,
            signals=(entry_label(phase, index, rank),),
            worker=rank, block=index, phase=phase,
        ))

    def moe_tasks(block, phase):
        index = block.index
        strategy = runner[index]
        if strategy.micro_capable:
            lane.add(*strategy.worker_tasks(
                ctx, rank, index, phase, (m, micro)
            ))
            return
        if single:
            lane.add(*strategy.worker_tasks(ctx, rank, index, phase))
            return
        # Full-batch rendezvous: lane 0 waits for every sibling lane to
        # reach the block, runs the block once, then releases them.  Lane 0
        # rendezvouses with itself implicitly, so only siblings signal.
        rv = f"rv.{phase}.b{index}.w{rank}"
        gate = f"{p}.{phase}.b{index}"
        if m == 0:
            lane.add(
                Task(
                    f"{gate}.gather", TaskKind.GATE,
                    waits=tuple(f"{rv}.mb{i}" for i in range(1, micro)),
                    worker=rank, block=index, phase=phase,
                ),
                *strategy.worker_tasks(ctx, rank, index, phase),
                Task(
                    f"{gate}.release", TaskKind.GATE,
                    signals=(f"{rv}.done",),
                    worker=rank, block=index, phase=phase,
                ),
            )
        else:
            lane.add(
                Task(
                    f"{gate}.rv", TaskKind.GATE, signals=(f"{rv}.mb{m}",),
                    worker=rank, block=index, phase=phase,
                ),
                Task(
                    f"{gate}.released", TaskKind.GATE,
                    waits=(f"{rv}.done",),
                    worker=rank, block=index, phase=phase,
                ),
            )

    for block in workload.blocks:
        index = block.index
        if block.is_moe:
            entry_task(block, "fwd")
        lane.add(Task(
            f"{p}.fwd.b{index}.dense", TaskKind.DENSE_COMPUTE,
            body=_dense_body(engine, ctx, gpu, block, 1.0, scale, rank_flops),
            claims=claims, worker=rank, block=index, phase="fwd",
            detail=f"fwd{suffix}", span="compute.dense",
        ))
        if block.is_moe:
            moe_tasks(block, "fwd")
        if rank == TRACE_WORKER and m == 0:
            lane.add(Task(
                f"{p}.fwd.b{index}.mark", TaskKind.GATE,
                body=_mark_body(ctx, rank, index),
                worker=rank, block=index,
            ))

    if forward_only:
        return

    for block in reversed(workload.blocks):
        index = block.index
        if block.is_moe:
            entry_task(block, "bwd")
            moe_tasks(block, "bwd")
        lane.add(Task(
            f"{p}.bwd.b{index}.dense", TaskKind.DENSE_COMPUTE,
            body=_dense_body(
                engine, ctx, gpu, block, BACKWARD_MULTIPLIER, scale,
                rank_flops,
            ),
            claims=claims, worker=rank, block=index, phase="bwd",
            detail=f"bwd{suffix}",
        ))
        if allreduce == "overlap":
            lane.add(Task(
                f"{p}.bwd.b{index}.grad-ready", TaskKind.GATE,
                signals=(_bdense_label(index, rank, mb),),
                worker=rank, block=index, phase="bwd",
            ))
    if allreduce == "serial":
        lane.add(Task(
            f"{p}.done", TaskKind.GATE, signals=(_done_label(rank, mb),),
            worker=rank,
        ))


# -- gradient all-reduce lanes ---------------------------------------------


def _allreduce_body(engine, ctx, nbytes):
    def body():
        yield all_reduce(
            ctx.fabric, nbytes,
            hierarchical=engine.features.hierarchical_a2a,
        )

    return body


def _build_allreduce_lanes(engine, ctx, graph, micro) -> None:
    """Dense-gradient all-reduce of every block's non-expert parameters.

    ``serial`` runs one lane after the whole backward sweep — the classic
    unoverlapped baseline.  ``overlap`` gives each block its own lane that
    fires as soon as every worker lane finished that block's backward
    dense compute, so the all-reduce rides the idle link time of the
    remaining (earlier-block) backward work.  Overlap lanes run at simkit
    dispatch priority 2: they only start once same-instant foreground work
    has been scheduled.
    """
    mode = engine.features.grad_allreduce
    workload = engine.workload
    config = workload.config
    world = workload.world_size
    micros = range(micro) if micro > 1 else (None,)
    if mode == "serial":
        lane = graph.lane("allreduce.serial", role="collector")
        lane.add(Task(
            "allreduce.barrier", TaskKind.GATE,
            waits=tuple(
                _done_label(rank, m) for rank in range(world) for m in micros
            ),
        ))
        for block in reversed(workload.blocks):
            index = block.index
            lane.add(Task(
                f"allreduce.b{index}", TaskKind.GRAD_ALLREDUCE,
                body=_allreduce_body(
                    engine, ctx, config.dense_param_bytes(index)
                ),
                block=index, phase="bwd", detail="serial",
                span="comm.allreduce",
            ))
        return
    for block in reversed(workload.blocks):
        index = block.index
        lane = graph.lane(
            f"allreduce.b{index}", role="collector", priority=2
        )
        lane.add(Task(
            f"allreduce.b{index}", TaskKind.GRAD_ALLREDUCE,
            waits=tuple(
                _bdense_label(index, rank, m)
                for rank in range(world)
                for m in micros
            ),
            body=_allreduce_body(
                engine, ctx, config.dense_param_bytes(index)
            ),
            block=index, phase="bwd", detail="overlap", priority=2,
            span="comm.allreduce",
        ))
