"""Metric primitives: counters, gauges, histograms and a registry.

The registry is the quantitative counterpart of :mod:`repro.trace`: spans
say *when* something happened, metrics say *how much* of it happened.  It
is deliberately passive — incrementing a counter is a pure Python dict
update with no simulation-kernel interaction, so an instrumented run is
event-for-event identical to an uninstrumented one (the bit-identical
guarantee the golden-time tests lock down).

Metrics are identified by a dotted name plus a label set, Prometheus
style: ``registry.inc("pull.issued", kind="internal")``.  Histograms use
fixed logarithmic bucket bounds so two runs of the same simulation always
produce identical bucket counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

LabelKey = Tuple[Tuple[str, object], ...]

# Log-spaced from 1 microsecond to ~100 seconds: covers every simulated
# latency this repo produces (pull latencies are typically 1e-5..1e-2 s).
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** exponent for exponent in range(-6, 3)
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted(labels.items()))


@dataclass
class Histogram:
    """Streaming histogram with fixed bucket upper bounds."""

    bounds: Tuple[float, ...] = DEFAULT_BUCKETS
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    # bucket_counts[i] counts observations <= bounds[i]; the final slot
    # counts the overflow (> bounds[-1]).
    bucket_counts: List[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                str(bound): count
                for bound, count in zip(self.bounds, self.bucket_counts)
            },
            "overflow": self.bucket_counts[-1],
        }


class MetricsRegistry:
    """Name + label set -> counter/gauge/histogram store."""

    def __init__(self):
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}

    # -- writes --------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to the counter (counters only ever go up)."""
        if value < 0:
            raise ValueError(f"counter {name!r} increment must be >= 0")
        series = self._counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0.0) + value

    def set(self, name: str, value: float, **labels) -> None:
        """Set a gauge to ``value`` (last write wins)."""
        self._gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one histogram observation."""
        series = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        if key not in series:
            series[key] = Histogram()
        series[key].observe(value)

    # -- reads ---------------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def gauge(self, name: str, **labels) -> Optional[float]:
        return self._gauges.get(name, {}).get(_label_key(labels))

    def total(self, name: str) -> float:
        """Sum of a counter over every label set."""
        return sum(self._counters.get(name, {}).values())

    def series(self, name: str) -> Dict[LabelKey, float]:
        """All (label set -> value) pairs of one counter."""
        return dict(self._counters.get(name, {}))

    def gauge_series(self, name: str) -> Dict[LabelKey, float]:
        return dict(self._gauges.get(name, {}))

    def counter_names(self) -> List[str]:
        return sorted(self._counters)

    # -- export --------------------------------------------------------------

    @staticmethod
    def _label_text(key: LabelKey) -> str:
        if not key:
            return ""
        return ",".join(f"{name}={value}" for name, value in key)

    def as_dict(self) -> Dict:
        """JSON-serializable snapshot of every metric."""
        return {
            "counters": {
                name: {
                    self._label_text(key): value
                    for key, value in sorted(
                        series.items(), key=lambda item: str(item[0])
                    )
                }
                for name, series in sorted(self._counters.items())
            },
            "gauges": {
                name: {
                    self._label_text(key): value
                    for key, value in sorted(
                        series.items(), key=lambda item: str(item[0])
                    )
                }
                for name, series in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    self._label_text(key): histogram.as_dict()
                    for key, histogram in sorted(
                        series.items(), key=lambda item: str(item[0])
                    )
                }
                for name, series in sorted(self._histograms.items())
            },
        }
