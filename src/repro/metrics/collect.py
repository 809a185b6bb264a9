"""Derive per-iteration KPIs and harvest simulation state into a registry.

Two kinds of metrics feed the registry:

* **live counters** — incremented inline by the schedulers and the comm
  layer while the simulation runs (pure Python increments; they cannot
  perturb event ordering), and
* **post-run harvest** — everything this module computes *after*
  ``env.run`` returns: per-link bytes and utilization from the fluid
  network, credit-buffer occupancy from the containers, cache-fill
  counts, the simkit kernel's event/process totals, and the derived
  overlap/All-to-All KPIs from the trace.

The split keeps the bit-identical guarantee trivial: nothing here ever
touches the simulation clock.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..cluster import LinkId
from .registry import MetricsRegistry

__all__ = [
    "busy_kpis",
    "task_kind_breakdown",
    "chunk_tuning_breakdown",
    "serving_breakdown",
    "collect_iteration_metrics",
]


def busy_kpis(
    trace, iteration: Optional[int] = None
) -> Tuple[float, float, float]:
    """``(comm busy, compute busy, overlap efficiency)`` of the traced
    lanes, from three interval unions.

    The busy times are the union time any ``comm.*`` and any
    ``compute.*`` lane was busy.  ``overlap = busy(comm) + busy(compute)
    - busy(comm ∪ compute)`` is the time computation and communication
    ran concurrently; the efficiency divides it by ``min(busy(comm),
    busy(compute))`` to normalize to [0, 1]: 1.0 means the scarcer
    activity was fully overlapped (the Fig. 13 ideal), 0.0 means strict
    serialization (the Fig. 3 baseline).
    """
    comm = trace.busy_union("comm.", iteration=iteration)
    compute = trace.busy_union("compute.", iteration=iteration)
    either = trace.busy_union("comm.", "compute.", iteration=iteration)
    bound = min(comm, compute)
    if bound <= 0:
        return comm, compute, 0.0
    # Interval-union arithmetic accumulates float noise; keep the KPI in
    # its defined [0, 1] range.
    overlap = min(max((comm + compute - either) / bound, 0.0), 1.0)
    return comm, compute, overlap


def task_kind_breakdown(
    registry: MetricsRegistry,
) -> Dict[str, Dict[str, float]]:
    """Per-task-kind execution totals from the task-graph scheduler.

    The engine's task observer counts every body-bearing task it retires
    into ``task.count``/``task.seconds`` (labelled by kind); this folds
    both counters into ``kind -> {"count", "seconds"}``, sorted by kind.
    Empty when the run had no registry attached."""
    breakdown: Dict[str, Dict[str, float]] = {}
    for metric, field in (("task.count", "count"),
                          ("task.seconds", "seconds")):
        for key, value in registry.series(metric).items():
            kind = str(dict(key).get("kind"))
            entry = breakdown.setdefault(
                kind, {"count": 0.0, "seconds": 0.0}
            )
            entry[field] = value
    return dict(sorted(breakdown.items()))


def chunk_tuning_breakdown(registry: MetricsRegistry) -> Dict:
    """Fold the ``control.chunk_tuning.*`` metrics into one report section.

    Per pipelined block: the tuner's chosen chunk count, its predicted
    per-chunk All-to-All seconds, the mean *measured* per-chunk task time
    (booked by the task observer), and how often the choice switched
    between retunes.  Top level: total retunes and the tuned global
    micro-batch count (with its own switch counter under the ``"micro"``
    pseudo-block).  Empty when the run never tuned, so default reports
    are unchanged.
    """
    blocks: Dict[str, Dict[str, float]] = {}

    def entry(key) -> Dict[str, float]:
        return blocks.setdefault(str(dict(key).get("block")), {})

    for key, value in registry.gauge_series(
        "control.chunk_tuning.chunks"
    ).items():
        entry(key)["chunks"] = int(value)
    for key, value in registry.gauge_series(
        "control.chunk_tuning.predicted_chunk_s"
    ).items():
        entry(key)["predicted_chunk_s"] = value
    measured = registry.series("control.chunk_tuning.measured_chunk_s")
    for key, count in registry.series(
        "control.chunk_tuning.measured_chunks"
    ).items():
        if count > 0:
            entry(key)["measured_chunk_s"] = measured.get(key, 0.0) / count
    for key, value in registry.series(
        "control.chunk_tuning.switches"
    ).items():
        entry(key)["switches"] = int(value)
    breakdown: Dict = {}
    retunes = registry.total("control.chunk_tuning.retunes")
    if retunes:
        breakdown["retunes"] = int(retunes)
    micro = registry.gauge("control.chunk_tuning.micro_batches")
    if micro is not None:
        breakdown["micro_batches"] = int(micro)
    if blocks:
        def block_key(item):
            name = item[0]
            return (not name.isdigit(), int(name) if name.isdigit() else 0,
                    name)

        breakdown["blocks"] = dict(sorted(blocks.items(), key=block_key))
    return breakdown


def serving_breakdown(registry: MetricsRegistry) -> Dict[str, Dict]:
    """Fold the ``serve.*`` lanes into the ``serving`` section of the
    serve report (:func:`repro.serving.build_serving_report`).

    The serving simulator counts requests/steps/tokens/bytes (labelled by
    phase or kind) and observes TTFT / per-output-token / end-to-end
    latency plus decode batch-size histograms.  Counters fold per label
    value; histograms contribute count/mean/min/max.  Empty when the
    registry holds no ``serve.*`` lane.
    """
    breakdown: Dict[str, Dict] = {}
    for metric in ("serve.requests", "serve.steps",
                   "serve.tokens", "serve.bytes"):
        series = registry.series(metric)
        if not series:
            continue
        breakdown[metric.split(".", 1)[1]] = {
            "/".join(str(value) for _, value in key) or "total": total
            for key, total in sorted(
                series.items(), key=lambda item: str(item[0])
            )
        }
    histograms = {
        name.split(".", 1)[1]: {
            labels or "all": {
                "count": stats["count"],
                "mean": stats["mean"],
                "min": stats["min"],
                "max": stats["max"],
            }
            for labels, stats in series.items()
        }
        for name, series in registry.as_dict()["histograms"].items()
        if name.startswith("serve.")
    }
    if histograms:
        breakdown["histograms"] = histograms
    return breakdown


def collect_iteration_metrics(
    registry: MetricsRegistry,
    result,
    fabric,
    ctx,
    iteration: int = 0,
) -> None:
    """Harvest one finished iteration into ``registry``.

    ``result`` is the :class:`~repro.core.engine.IterationResult`,
    ``fabric`` the iteration's :class:`~repro.netsim.Fabric` and ``ctx``
    its :class:`~repro.core.context.IterationContext`.
    """
    comm, compute, overlap = busy_kpis(
        result.trace, getattr(result, "iteration", None)
    )

    # Headline timing KPIs.
    registry.set("iter.seconds", result.seconds, iteration=iteration)
    registry.set("iter.overlap_efficiency", overlap, iteration=iteration)
    registry.set(
        "iter.a2a_share", result.all_to_all_share, iteration=iteration
    )
    registry.set("iter.comm_busy_s", comm, iteration=iteration)
    registry.set("iter.compute_busy_s", compute, iteration=iteration)

    # Paradigm decisions per block (counts accumulate across iterations).
    for block, name in sorted(result.strategies.items()):
        registry.inc("block.strategy", block=block, strategy=name)

    # Per-link traffic from the fluid network.
    elapsed = result.seconds
    for link_id, moved in fabric.network.link_bytes.items():
        if moved <= 0:
            continue
        label = _link_label(link_id)
        registry.inc("link.bytes", moved, link=label)
        if elapsed > 0:
            registry.set(
                "link.utilization",
                fabric.network.link_utilization(link_id, elapsed),
                link=label,
                iteration=iteration,
            )
    for machine in range(fabric.cluster.num_machines):
        registry.inc(
            "machine.egress_bytes",
            fabric.nic_bytes(machine, "out"),
            machine=machine,
        )

    # Credit-buffer occupancy (§5.1.1): occupancy = C - level.
    capacity = ctx.features.credit_size
    for rank, container in sorted(ctx.credits.items()):
        registry.set(
            "credit.max_occupancy",
            capacity - container.min_level,
            rank=rank,
            iteration=iteration,
        )
        registry.set(
            "credit.final_level",
            container.level,
            rank=rank,
            iteration=iteration,
        )

    # Hierarchical-cache fills performed by the Inter-Node Schedulers.
    for machine, fills in sorted(ctx.cache_fills.items()):
        if fills:
            registry.inc("cache.fills", fills, machine=machine)

    # Background replica refreshes placed by the adaptive control plane.
    for machine, syncs in sorted(getattr(ctx, "replica_syncs", {}).items()):
        if syncs:
            registry.inc("control.replica_syncs", syncs, machine=machine)

    # Fault-layer outcomes, when the resilience machinery ran.
    stats = result.fault_stats
    if stats is not None:
        registry.inc("fault.retries", stats.retries)
        registry.inc("fault.stale_fallbacks", stats.stale_fallbacks)
        registry.inc("fault.grad_failures", stats.grad_failures)
        registry.inc("fault.dropped_messages", stats.dropped_messages)

    # Simulation-kernel accounting.
    env = ctx.env
    registry.set(
        "sim.events_processed", env.events_processed, iteration=iteration
    )
    registry.set(
        "sim.processes_started", env.processes_started, iteration=iteration
    )


def _link_label(link_id) -> str:
    """Stable text label for a link id: a :class:`LinkId`'s own ``str``
    (``nic[0.1].out``), another tuple's parts joined by ``:``, or any
    other id's ``str``.  ``LinkId`` is a tuple, so it is tested first."""
    if isinstance(link_id, tuple) and not isinstance(link_id, LinkId):
        return ":".join(str(part) for part in link_id)
    return str(link_id)
