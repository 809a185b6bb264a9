"""Machine-readable run reports (written by ``simulate --metrics-out``,
rendered by ``repro report``).

One report summarizes a sequence of simulated iterations: headline
timings, the derived overlap/All-to-All KPIs, traffic, per-block strategy
decisions, and (when a registry was attached) the full metric dump.  The
schema is versioned so downstream tooling can detect layout changes.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .collect import busy_kpis, chunk_tuning_breakdown, task_kind_breakdown
from .registry import MetricsRegistry

__all__ = ["SCHEMA", "iteration_summary", "build_run_report", "write_run_report"]

SCHEMA = "janus-repro/run-report/v1"


def iteration_summary(result) -> Dict:
    """Headline numbers of one :class:`IterationResult`."""
    comm, compute, overlap = busy_kpis(
        result.trace, getattr(result, "iteration", None)
    )
    seconds = result.seconds
    a2a = result.all_to_all_seconds
    summary = {
        "seconds": seconds,
        "all_to_all_seconds": a2a,
        # IterationResult.all_to_all_share, without a second union.
        "all_to_all_share": a2a / seconds if seconds > 0 else 0.0,
        "overlap_efficiency": overlap,
        "comm_busy_seconds": comm,
        "compute_busy_seconds": compute,
        "nic_egress_bytes": [float(b) for b in result.nic_egress_bytes],
        "cross_node_gb_per_machine": result.cross_node_gb_per_machine,
        "strategies": {
            str(block): name
            for block, name in sorted(result.strategies.items())
        },
    }
    stats = result.fault_stats
    if stats is not None:
        summary["faults"] = {
            "dropped_messages": stats.dropped_messages,
            "retries": stats.retries,
            "stale_fallbacks": stats.stale_fallbacks,
            "grad_failures": stats.grad_failures,
        }
    return summary


def build_run_report(
    results: List,
    registry: Optional[MetricsRegistry] = None,
    **meta,
) -> Dict:
    """Assemble the report dict for a sequence of iteration results.

    ``meta`` keys (model, paradigm, machines, ...) are recorded verbatim
    under ``"run"``.
    """
    iterations = [iteration_summary(result) for result in results]
    report = {
        "schema": SCHEMA,
        "run": dict(sorted(meta.items())),
        "iterations": iterations,
        "makespan_seconds": sum(entry["seconds"] for entry in iterations),
    }
    if registry is not None:
        report["metrics"] = registry.as_dict()
        tasks = task_kind_breakdown(registry)
        if tasks:
            report["tasks"] = tasks
        tuning = chunk_tuning_breakdown(registry)
        if tuning:
            report["chunk_tuning"] = tuning
    return report


def write_run_report(path, report: Dict) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
