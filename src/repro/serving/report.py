"""Serving reports: the ``repro serve`` table and its JSON document."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..metrics import serving_breakdown
from .simulator import ServingResult

__all__ = ["SERVE_SCHEMA", "build_serving_report", "format_serving_summary"]

SERVE_SCHEMA = "janus-repro/serve-report/v1"


def build_serving_report(
    results: Sequence[ServingResult],
    registry=None,
    **meta,
) -> Dict:
    """Machine-readable document for one ``repro serve`` invocation.

    ``meta`` (model, machines, trace spec, ...) is recorded verbatim under
    ``"run"``; each topology contributes its summary and digest.  With a
    ``registry``, the report carries its metric dump and the ``serve.*``
    lanes folded by :func:`~repro.metrics.serving_breakdown`.
    """
    report = {
        "schema": SERVE_SCHEMA,
        "run": dict(sorted(meta.items())),
        "topologies": {
            result.topology: dict(
                result.summary(), digest=result.digest()
            )
            for result in results
        },
    }
    if registry is not None:
        report["metrics"] = registry.as_dict()
        report["serving"] = serving_breakdown(registry)
    return report


def _tpot(ms: Optional[float]) -> str:
    """One TPOT cell; ``n/a`` when no request decoded."""
    return f"{'n/a':>9}" if ms is None else f"{ms:>7.3f}ms"


def format_serving_summary(
    results: Sequence[ServingResult], title: Optional[str] = None
) -> str:
    """Fixed-width comparison table across topologies."""
    header = (
        f"{'topology':<15} {'p50 TTFT':>9} {'p99 TTFT':>9} "
        f"{'p50 TPOT':>9} {'p99 TPOT':>9} {'goodput':>9} "
        f"{'SLO':>6} {'GB':>7} {'sim s':>7}"
    )
    lines = []
    if title:
        lines.append(title)
    lines += [header, "-" * len(header)]
    for result in results:
        summary = result.summary()
        lines.append(
            f"{summary['topology']:<15} "
            f"{summary['ttft_p50_ms']:>7.2f}ms "
            f"{summary['ttft_p99_ms']:>7.2f}ms "
            f"{_tpot(summary['tpot_p50_ms'])} "
            f"{_tpot(summary['tpot_p99_ms'])} "
            f"{summary['goodput_rps']:>7.0f}/s "
            f"{summary['slo_attainment']:>6.1%} "
            f"{summary['nic_gb']:>7.2f} "
            f"{summary['makespan_s']:>7.2f}"
        )
    for result in results:
        summary = result.summary()
        choices = "; ".join(
            f"{phase}: " + ", ".join(
                f"{name} x{count}" for name, count in counts.items()
            )
            for phase, counts in summary["paradigms"].items()
            if counts
        )
        if choices:
            lines.append(f"{result.topology}: {choices}")
    return "\n".join(lines)
