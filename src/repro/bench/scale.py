"""``repro bench --suite scale``: fleet sizes from 8 to 128 machines.

The sim suite times the paper's Fig.-14 configs at a fixed 4-machine
cluster; this suite grows the *cluster* — MoE-GPT under the
expert-centric paradigm at 8, 16, 32, 64 and 128 machines (experts scale
with the fleet, 8 per machine).  Besides the shared wall-clock gate
against ``benchmarks/BENCH_scale.json`` it gates on:

* **structure** (host-independent): wall microseconds per simulated
  event may grow at most ``MAX_PER_EVENT_GROWTH``x from the smallest to
  the largest fleet.  Event counts grow ~quadratically with machines
  (every machine pair exchanges All-to-All traffic), so per-event cost
  is the scale-invariant: any superlinear term in the solver, the event
  core or the flow tables shows up here before it shows up anywhere
  else;
* **budget**: the 128-machine iteration must simulate in under
  ``TOP_ITERATION_BUDGET_S`` seconds after rescaling by the host
  calibration ratio.

The top point simulates two iterations back-to-back so the capture
exercises over a million events in one timed sample.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .harness import BENCH_DIR, Suite, time_iterations

SCALE_SCHEMA = "janus-repro/bench-scale/v1"

# Structural gate: per-event wall cost from the smallest to the largest
# fleet in a capture.
MAX_PER_EVENT_GROWTH = 1.3

# Absolute budget for one simulated iteration at the largest fleet,
# rescaled by the calibration ratio when checking against a snapshot.
TOP_ITERATION_BUDGET_S = 10.0


class ScaleBenchConfig(NamedTuple):
    """One weak-scaling point."""

    machines: int
    model: str = "MoE-GPT"
    mode: str = "expert-centric"
    iterations: int = 1     # simulated iterations per timed sample
    runs: int = 1           # timed samples (median reported)

    @property
    def experts(self) -> int:
        return self.machines * 8    # one expert per GPU

    @property
    def key(self) -> str:
        return f"{self.model}/{self.mode}/{self.machines}m"


# Small points are cheap enough to sample three times (the median then
# shrugs off scheduler noise); the 128-machine point is long enough to be
# its own noise floor and doubles up iterations to cross 1M events.
SCALE_FULL_CONFIGS: Tuple[ScaleBenchConfig, ...] = (
    ScaleBenchConfig(machines=8, runs=3),
    ScaleBenchConfig(machines=16, runs=3),
    ScaleBenchConfig(machines=32, runs=2),
    ScaleBenchConfig(machines=64, runs=2),
    # Two samples: the first 128-machine run pays cold page faults for
    # gigabyte-scale flow tables; the best sample reflects steady state.
    ScaleBenchConfig(machines=128, iterations=2, runs=2),
)

# CI smoke subset: the scaling law needs two points to exist at all.
# Both are sub-second, so triple-sampling is cheap noise insurance.
SCALE_QUICK_CONFIGS: Tuple[ScaleBenchConfig, ...] = (
    ScaleBenchConfig(machines=8, runs=3),
    ScaleBenchConfig(machines=16, runs=3),
)


def time_scale_config(spec: ScaleBenchConfig, runs: int = 0) -> Dict:
    """Time one weak-scaling point; the median is seconds per iteration.

    ``runs`` overrides the point's own sample count when positive.
    """
    from ..cluster import Cluster
    from ..config import TABLE1_MODELS
    from ..core import JanusFeatures, build_workload, engine_for

    config = TABLE1_MODELS[spec.model](spec.experts)
    cluster = Cluster(spec.machines)
    workload = build_workload(config, cluster)
    features = JanusFeatures(topology_aware=True, prefetch=True)
    entry = time_iterations(
        runs or spec.runs,
        lambda: engine_for(
            spec.mode, config, cluster, workload=workload, features=features
        ),
        iterations=spec.iterations,
    )
    # The growth law divides two per-event costs, so it wants the
    # least-noise estimator: the best sample, not the median (which the
    # wall gate uses — a regression should shift the whole distribution,
    # while scheduler noise only pads it).
    events = entry["events"]
    entry.update(
        machines=spec.machines,
        experts=spec.experts,
        iterations=spec.iterations,
        events_total=events * spec.iterations,
        per_event_us=entry["best_s"] / events * 1e6 if events else 0.0,
    )
    return entry


def _ordered_points(current: Dict) -> List[Dict]:
    return sorted(
        current.get("runs", {}).values(), key=lambda e: e["machines"]
    )


def check_scale_structure(
    current: Dict, max_growth: float = MAX_PER_EVENT_GROWTH
) -> List[str]:
    """Host-independent weak-scaling gate on one capture.

    Per-event wall cost from the smallest to the largest fleet must not
    grow beyond ``max_growth``; both endpoints come from the same
    capture on the same host, so no calibration is involved.

    The law only engages when the capture spans at least a 4x machine
    range: between adjacent fleet sizes the per-event delta is scheduler
    noise (sub-second points swing +-20% on a busy one-core runner), not
    scaling structure, and gating on it would make the quick CI subset
    flaky by construction.
    """
    points = _ordered_points(current)
    problems = []
    if len(points) < 2:
        problems.append(
            "scaling law needs at least two fleet sizes in the capture"
        )
        return problems
    first, last = points[0], points[-1]
    if last["machines"] < 4 * first["machines"]:
        return problems
    if first["per_event_us"] <= 0:
        problems.append("smallest point reported no events")
        return problems
    growth = last["per_event_us"] / first["per_event_us"]
    if growth > max_growth:
        problems.append(
            f"per-event cost grows {growth:.2f}x from "
            f"{first['machines']}m ({first['per_event_us']:.2f} us) to "
            f"{last['machines']}m ({last['per_event_us']:.2f} us); "
            f"allowed {max_growth:.2f}x"
        )
    return problems


def _gates(current: Dict, snapshot: Dict, scale: float) -> List[str]:
    """The growth law plus the rescaled top-point iteration budget."""
    problems = check_scale_structure(current)
    points = _ordered_points(current)
    if points:
        top = points[-1]
        budget = TOP_ITERATION_BUDGET_S * scale
        if top["median_s"] > budget:
            problems.append(
                f"{top['machines']}m iteration takes {top['median_s']:.2f} s"
                f" vs budget {budget:.2f} s "
                f"({TOP_ITERATION_BUDGET_S:.0f} s x calibration {scale:.2f})"
            )
    return problems


def _growth(entry: Dict, base: Optional[Dict]) -> str:
    if not base or base["per_event_us"] <= 0:
        return "-"
    return f"{entry['per_event_us'] / base['per_event_us']:.2f}x"


def _describe(configs: Sequence[ScaleBenchConfig], runs: int) -> Dict:
    return {
        "model": configs[0].model if configs else "",
        "mode": configs[0].mode if configs else "",
        "machines": [spec.machines for spec in configs],
        "features": "topology_aware+prefetch",
    }


SUITE = Suite(
    name="scale",
    summary="weak-scaling sweep, 8-128 machines",
    schema=SCALE_SCHEMA,
    snapshot=BENCH_DIR / "BENCH_scale.json",
    full=SCALE_FULL_CONFIGS,
    quick=SCALE_QUICK_CONFIGS,
    runs=(0, 0),    # 0: each point's own sample count
    unit="iter",
    measure=time_scale_config,
    describe=_describe,
    columns=(
        ("experts", lambda entry, _: f"{entry['experts']:d}"),
        ("events", lambda entry, _: f"{entry['events']:d}"),
        ("us/event", lambda entry, _: f"{entry['per_event_us']:.2f}"),
        ("growth", _growth),
    ),
    gates=_gates,
    baseline=SCALE_QUICK_CONFIGS[0].key,
)
