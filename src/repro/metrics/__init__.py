"""Quantitative observability for the simulated training stack.

* :class:`MetricsRegistry` — counters, gauges and histograms, threaded
  through the engine, both schedulers, the comm/pull layer, the netsim
  fabric and the simkit kernel (pass ``metrics=`` to
  :class:`~repro.core.engine.JanusEngine` or any engine constructor).
* :mod:`~repro.metrics.collect` — per-iteration derived KPIs (overlap
  efficiency, link utilization, credit occupancy, cache dedup).
* :mod:`~repro.metrics.chrome_trace` — Trace Event Format export for
  ``chrome://tracing`` / Perfetto.
* :mod:`~repro.metrics.report` — the versioned machine-readable run
  report that ``simulate --metrics-out`` writes and ``repro report``
  renders.
"""

from .chrome_trace import chrome_trace, write_chrome_trace
from .collect import (
    busy_kpis,
    chunk_tuning_breakdown,
    collect_iteration_metrics,
    serving_breakdown,
    task_kind_breakdown,
)
from .registry import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from .report import (
    SCHEMA,
    build_run_report,
    iteration_summary,
    write_run_report,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "SCHEMA",
    "build_run_report",
    "busy_kpis",
    "chrome_trace",
    "chunk_tuning_breakdown",
    "collect_iteration_metrics",
    "iteration_summary",
    "serving_breakdown",
    "task_kind_breakdown",
    "write_chrome_trace",
    "write_run_report",
]
