"""Chrome-trace / Perfetto export of recorded spans and metrics.

Produces the Trace Event Format JSON that ``chrome://tracing`` and
https://ui.perfetto.dev load directly: complete (``"ph": "X"``) events for
spans, instant (``"ph": "i"``) events for point marks, counter
(``"ph": "C"``) samples for registry counters, and metadata (``"ph": "M"``)
events naming one process per iteration and its per-worker threads.
Timestamps are microseconds, as the format requires.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .registry import MetricsRegistry

__all__ = ["chrome_trace", "write_chrome_trace"]

_US = 1e6          # simulated seconds -> trace microseconds
_GLOBAL_TID = 0    # lane for spans with no worker attribution (coordinators)


def _tid(worker: Optional[int]) -> int:
    return _GLOBAL_TID if worker is None else worker + 1


def _lane_names(trace, process_name: str) -> List[Dict]:
    """Metadata naming every ``(pid, tid)`` lane: one process per
    recorded iteration, each with its coordinator and worker threads."""
    lanes: Dict[int, set] = {}
    for span in trace.spans:
        lanes.setdefault(span.iteration, set()).add(span.worker)
    for event in trace.events:
        lanes.setdefault(event["iteration"], set()).add(event.get("worker"))
    single = len(lanes) <= 1
    events: List[Dict] = []
    for pid in sorted(lanes) or [0]:
        workers = sorted(w for w in lanes.get(pid, ()) if w is not None)
        names = [
            ("process_name", _GLOBAL_TID,
             process_name if single else f"{process_name} iteration {pid}"),
            ("thread_name", _GLOBAL_TID, "coordinators"),
        ] + [("thread_name", _tid(w), f"worker {w}") for w in workers]
        events.extend(
            {"name": name, "ph": "M", "ts": 0, "pid": pid, "tid": tid,
             "args": {"name": text}}
            for name, tid, text in names
        )
    return events


def chrome_trace(
    trace,
    registry: Optional[MetricsRegistry] = None,
    process_name: str = "janus-sim",
) -> Dict:
    """Convert a :class:`~repro.trace.TraceRecorder` to a trace dict.

    Each iteration's clock starts at zero, so each recorded iteration is
    its own process (``pid`` = iteration) instead of being drawn on top of
    the others; a single-iteration trace is process 0.  Counter samples
    sit at the end of the last iteration."""
    events = _lane_names(trace, process_name)
    last = max(event["pid"] for event in events)

    end_ts = 0.0
    for span in trace.spans:
        args = {"iteration": span.iteration}
        if span.block is not None:
            args["block"] = span.block
        if span.detail is not None:
            args["detail"] = span.detail
        events.append(
            {
                "name": span.kind,
                "cat": span.kind.split(".", 1)[0],
                "ph": "X",
                "ts": span.start * _US,
                "dur": span.duration * _US,
                "pid": span.iteration,
                "tid": _tid(span.worker),
                "args": args,
            }
        )
        if span.iteration == last:
            end_ts = max(end_ts, span.end * _US)

    for event in trace.events:
        args = {
            key: value
            for key, value in event.items()
            if key not in ("name", "time", "worker")
        }
        events.append(
            {
                "name": event["name"],
                "cat": event["name"].split(".", 1)[0],
                "ph": "i",
                "s": "t",
                "ts": event["time"] * _US,
                "pid": event["iteration"],
                "tid": _tid(event.get("worker")),
                "args": args,
            }
        )
        if event["iteration"] == last:
            end_ts = max(end_ts, event["time"] * _US)

    if registry is not None:
        for name in registry.counter_names():
            series = {
                MetricsRegistry._label_text(key) or "value": value
                for key, value in registry.series(name).items()
            }
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": end_ts,
                    "pid": last,
                    "tid": _GLOBAL_TID,
                    "args": series,
                }
            )

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path,
    trace,
    registry: Optional[MetricsRegistry] = None,
    process_name: str = "janus-sim",
) -> Dict:
    """Serialize :func:`chrome_trace` to ``path``; returns the dict."""
    document = chrome_trace(trace, registry, process_name=process_name)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return document
