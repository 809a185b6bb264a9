"""The one harness every ``repro bench`` suite runs on.

A suite is a :class:`Suite` record holding only what is its own: its
configs, how to measure one config, how to describe a run of them, its
structural gates and its table columns.  Everything else is shared here
and runs every suite the same way:

* :func:`time_runs` — the timing loop (setup outside the timer, the
  cyclic GC held off inside it);
* :func:`capture` — one untimed warm-up, then every config sequentially,
  assembled with the host's calibration measurement;
* :meth:`Suite.check` — the clamped, calibration-rescaled median gate on
  top of the suite's own gates;
* :func:`write_snapshot` (history kept) and :func:`format_capture`.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

# src/repro/bench/harness.py -> repo root / benchmarks
BENCH_DIR = Path(__file__).resolve().parents[3] / "benchmarks"

# Calibration scaling is clamped so a wildly mis-measured calibration can
# not silently absorb a real regression (or invent one).
CALIBRATION_SCALE_BOUNDS = (0.2, 5.0)

# A table column: header, and the cell text for (entry, baseline entry).
Column = Tuple[str, Callable[[Dict, Optional[Dict]], str]]


def _no_gates(current: Dict, snapshot: Dict, scale: float) -> List[str]:
    return []


class Suite(NamedTuple):
    """One ``repro bench`` suite.

    ``measure(spec, runs)`` times one config and returns its ``runs``
    entry (at least ``median_s``); ``describe(configs, runs)`` is the
    capture's ``config`` section.  ``gates(current, snapshot, scale)``
    returns the suite's structural problems, ``scale`` being the clamped
    calibration ratio.  Table cells get the entry and ``runs[baseline]``.
    """

    name: str
    summary: str            # what the suite times (CLI help)
    schema: str
    snapshot: Path
    full: Tuple
    quick: Tuple
    runs: Tuple[int, int]   # default timed runs per config: (full, quick)
    unit: str               # what one timed sample covers
    measure: Callable[[Any, int], Dict]
    describe: Callable[[Sequence, int], Dict]
    columns: Tuple[Column, ...]
    gates: Callable[[Dict, Dict, float], List[str]] = _no_gates
    baseline: Optional[str] = None

    def check(
        self, current: Dict, snapshot: Dict, tolerance: float = 0.25
    ) -> List[str]:
        """Regression check of a fresh capture against a snapshot.

        The suite's structural gates, then the median gate: committed
        medians are rescaled by the calibration ratio so the gate compares
        simulator efficiency rather than raw machine speed.  Configs the
        capture did not run (``--quick``) are skipped.  Returns the list
        of violations (empty = pass).
        """
        scale = calibration_scale(current, snapshot)
        problems = list(self.gates(current, snapshot, scale))
        snap_runs = snapshot.get("runs", {})
        band = 1.0 + tolerance
        for key in sorted(current.get("runs", {})):
            if key not in snap_runs:
                problems.append(
                    f"{key}: not in committed snapshot (run --write)"
                )
                continue
            actual = current["runs"][key]["median_s"]
            snap = snap_runs[key]["median_s"]
            allowed = snap * scale * band
            if actual > allowed:
                problems.append(
                    f"{key}: median {actual * 1e3:.1f} ms/{self.unit} vs "
                    f"allowed {allowed * 1e3:.1f} ms/{self.unit} "
                    f"(snapshot {snap * 1e3:.1f} ms x calibration "
                    f"{scale:.2f} x band {band:.2f})"
                )
        return problems


def calibration_scale(current: Dict, snapshot: Dict) -> float:
    """Current host speed over the snapshot host's, clamped."""
    snap_cal = snapshot.get("calibration_s")
    cur_cal = current.get("calibration_s")
    if not (snap_cal and cur_cal):
        return 1.0
    low, high = CALIBRATION_SCALE_BOUNDS
    return min(max(cur_cal / snap_cal, low), high)


def time_runs(
    runs: int,
    body: Callable[[Any], Any],
    setup: Callable[[], Any] = lambda: None,
) -> Tuple[List[float], Any]:
    """The timing loop: ``runs`` samples of ``body(setup())``.

    ``setup`` runs outside the timer.  The cyclic garbage collector runs
    before each sample and is held off inside it (restored after):
    generation-2 collections scan the whole live object graph, which at
    128 machines is ~300k flow/event objects — a superlinear term that
    belongs to allocator policy, not to the code under test.  This is
    the discipline pytest-benchmark applies by default.

    Returns the sample seconds and the last ``body`` result.
    """
    samples: List[float] = []
    result = None
    for _ in range(runs):
        state = setup()
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            result = body(state)
            samples.append(time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
    return samples, result


def timing(samples: Sequence[float]) -> Dict:
    """The timing fields every ``runs`` entry starts with."""
    return {
        "median_s": statistics.median(samples),
        "best_s": min(samples),
        "samples": [round(sample, 6) for sample in samples],
    }


def _run_iterations(engines: Sequence) -> Any:
    for engine in engines:
        result = engine.run_iteration()
    return result


def time_iterations(
    runs: int, make_engine: Callable[[], Any], iterations: int = 1
) -> Dict:
    """The ``runs`` entry of one simulator config.

    Each sample runs ``iterations`` simulated iterations, each on a fresh
    engine from ``make_engine`` (built outside the timer), and counts as
    seconds per iteration.  The simulated seconds and kernel events are
    the last iteration's.
    """
    samples, result = time_runs(
        runs,
        _run_iterations,
        lambda: [make_engine() for _ in range(iterations)],
    )
    entry = timing([sample / iterations for sample in samples])
    entry.update(
        sim_seconds=result.seconds,
        events=result.sim_events,
        events_per_s=result.sim_events / entry["median_s"],
    )
    return entry


def _calibration_workload() -> float:
    """Fixed kernel-shaped work: heap churn plus small numpy passes."""
    heap: list = []
    for i in range(20000):
        heapq.heappush(heap, ((i * 2654435761) & 0xFFFF, i))
    while heap:
        heapq.heappop(heap)
    acc = 0.0
    values = np.arange(2048, dtype=float)
    for _ in range(200):
        values = values * 1.0000001
        acc += float(values[:512].sum())
    return acc


def calibrate(repeat: int = 3) -> float:
    """Best-of-``repeat`` wall time of the calibration workload."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        _calibration_workload()
        best = min(best, time.perf_counter() - start)
    return best


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def capture(
    suite: Suite,
    configs: Sequence,
    runs: int,
    calibration: Optional[float] = None,
) -> Dict:
    """Time ``configs`` and assemble the suite's capture.

    One untimed run of the first config comes first, so no timed sample
    pays first-use costs (imports, compiling the water-fill kernel, numpy
    warm-up).  Configs then run one after another, never in a process
    pool: concurrent workers would time each other's contention, not the
    code under test.
    """
    if configs:
        suite.measure(configs[0], 1)
    start = time.perf_counter()
    runs_section = {spec.key: suite.measure(spec, runs) for spec in configs}
    wall_s = time.perf_counter() - start
    return {
        "schema": suite.schema,
        "config": suite.describe(configs, runs),
        "calibration_s": calibrate() if calibration is None else calibration,
        "host": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpus": _cpu_count(),
        },
        "runs": runs_section,
        "wall_s": wall_s,
    }


def write_snapshot(path: Path, current: Dict) -> Dict:
    """Write ``current`` to ``path``, preserving any existing history.

    The ``history`` list is the wall-clock perf trajectory: each entry is
    a labelled prior capture.  It is never rewritten by ``--write`` —
    append entries deliberately when a perf milestone lands.
    """
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text()).get("history", [])
        except (ValueError, OSError):
            history = []
    payload = dict(current)
    payload["history"] = history
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload


def format_capture(suite: Suite, current: Dict) -> str:
    """Human-readable table of a capture: the median, then the suite's
    columns, then the scalar config fields and the calibration."""
    from ..analysis import format_table

    runs = current.get("runs", {})
    base = runs.get(suite.baseline)
    lines = [format_table(
        ["config", f"median ms/{suite.unit}"]
        + [header for header, _ in suite.columns],
        [
            [key, f"{entry['median_s'] * 1e3:.1f}"]
            + [cell(entry, base) for _, cell in suite.columns]
            for key, entry in runs.items()
        ],
    )]
    scalars = [
        f"{name}={value}"
        for name, value in current.get("config", {}).items()
        if isinstance(value, (str, int, float))
    ]
    if scalars:
        lines.append("config: " + " ".join(scalars))
    lines.append(
        f"calibration: {current.get('calibration_s', 0.0) * 1e3:.1f} ms "
        f"(host {current.get('host', {}).get('cpus', '?')} cpu(s)); "
        f"suite wall {current.get('wall_s', 0.0):.1f} s"
    )
    return "\n".join(lines)
