"""Request-level inference serving on the simulated cluster.

* :mod:`~repro.serving.arrivals` — seeded open-loop request traces
  (Poisson / diurnal / bursty arrivals, lognormal prompts, geometric
  outputs, Zipf expert affinity), bit-reproducible from the spec alone.
* :mod:`~repro.serving.simulator` — continuous-batching serving over the
  :class:`~repro.netsim.Fabric`, in a unified or a disaggregated
  prefiller/decoder topology with KV-transfer flows and decode-side
  hot-expert pinning.
* :mod:`~repro.serving.report` — the serving report rendered by
  ``repro serve`` and embedded by the run report.

Entry points: ``repro serve`` (CLI).  ``benchmarks/wall.py --suite
serving`` times it against ``benchmarks/BENCH_serving.json``, and
``benchmarks/test_bench_gates.py`` gates its disaggregation win.
"""

from .arrivals import (
    RequestTrace,
    TraceSpec,
    expert_rank,
    generate_trace,
)
from .report import SERVE_SCHEMA, build_serving_report, format_serving_summary
from .simulator import (
    ServingConfig,
    ServingResult,
    ServingSimulator,
    simulate_serving,
)

__all__ = [
    "SERVE_SCHEMA",
    "RequestTrace",
    "ServingConfig",
    "ServingResult",
    "ServingSimulator",
    "TraceSpec",
    "build_serving_report",
    "expert_rank",
    "format_serving_summary",
    "generate_trace",
    "simulate_serving",
]
