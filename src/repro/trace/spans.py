"""Span tracing for simulated iterations.

The timed engines record what happened when (compute spans, communication
spans, per-expert pull completions, block completions).  The evaluation
figures are all derived from these traces: Fig. 3 (All-to-All share of an
iteration), Fig. 13 (block completion vs expert arrival timeline and the
computation-communication overlap), and the speedup figures.

A recorder can span several simulated iterations: :meth:`new_iteration`
advances the current iteration scope, every span and event is stamped with
the scope it was recorded in, and every query accepts ``iteration=`` so
multi-iteration traces never double-count (with the default
``iteration=None`` a query covers the whole recording).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Span", "TraceRecorder"]


@dataclass(frozen=True)
class Span:
    """One timed activity in the simulation."""

    kind: str              # e.g. "compute.dense", "comm.all_to_all", "comm.pull"
    start: float
    end: float
    worker: Optional[int] = None     # global rank, if worker-specific
    block: Optional[int] = None      # model block index, if block-specific
    detail: Optional[str] = None     # free-form (e.g. "expert=7", "phase=fwd")
    iteration: int = 0               # recorder iteration scope (multi-iter runs)

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start


def _busy(intervals) -> float:
    """Union length of a set of (start, end) intervals."""
    busy = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                busy += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        busy += current_end - current_start
    return busy


class TraceRecorder:
    """Collects spans and point events for one simulated run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.events: List[Dict] = []
        self.iteration = 0

    def new_iteration(self) -> int:
        """Advance the iteration scope; subsequent records carry it."""
        self.iteration += 1
        return self.iteration

    def record(
        self,
        kind: str,
        start: float,
        end: float,
        worker: Optional[int] = None,
        block: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> None:
        self.spans.append(
            Span(kind, start, end, worker, block, detail, self.iteration)
        )

    def mark(self, name: str, time: float, **attrs) -> None:
        """Record a point event (e.g. expert arrival, block completion)."""
        event = {"name": name, "time": time, "iteration": self.iteration}
        event.update(attrs)
        self.events.append(event)

    # -- queries ---------------------------------------------------------------

    def _in_scope(self, span: Span, iteration: Optional[int]) -> bool:
        return iteration is None or span.iteration == iteration

    def spans_of(
        self, kind_prefix: str, iteration: Optional[int] = None
    ) -> List[Span]:
        return [
            span
            for span in self.spans
            if span.kind.startswith(kind_prefix)
            and self._in_scope(span, iteration)
        ]

    def busy_time(
        self, kind_prefix: str, iteration: Optional[int] = None
    ) -> float:
        """Union length of the matching spans' time intervals."""
        return self.busy_union(kind_prefix, iteration=iteration)

    def busy_union(
        self, *kind_prefixes: str, iteration: Optional[int] = None
    ) -> float:
        """Union busy time over spans matching any of the prefixes."""
        return _busy(
            (span.start, span.end)
            for prefix in kind_prefixes
            for span in self.spans_of(prefix, iteration)
        )

    def events_of(
        self, name: str, iteration: Optional[int] = None
    ) -> List[Dict]:
        return [
            event
            for event in self.events
            if event["name"] == name
            and (iteration is None or event.get("iteration") == iteration)
        ]

    def block_completions(
        self, worker: Optional[int] = None, iteration: Optional[int] = None
    ) -> Dict[int, float]:
        """block index -> completion time (forward), optionally per worker."""
        completions: Dict[int, float] = {}
        for event in self.events_of("block_complete", iteration):
            if worker is not None and event.get("worker") != worker:
                continue
            block = event["block"]
            completions[block] = max(completions.get(block, 0.0), event["time"])
        return completions

    def expert_arrivals(
        self, worker: Optional[int] = None, iteration: Optional[int] = None
    ) -> List[Dict]:
        """Expert pull completions (Fig. 13's lower sub-figure)."""
        return [
            event
            for event in self.events_of("expert_ready", iteration)
            if worker is None or event.get("worker") == worker
        ]
