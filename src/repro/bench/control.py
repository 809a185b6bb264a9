"""``repro bench --suite control``: the adaptive control plane under drift.

Runs an 8-iteration flip-drift schedule — expert popularity alternates
between balanced and Zipf-skewed phases every two iterations — on a
32-expert MoE-GPT shape sized so the paradigm ordering *crosses over*:
micro-batched expert-centric wins the balanced phases while data-centric
wins the skewed ones.  Every static paradigm (data-centric,
expert-centric, pipelined-ec, microbatch-ec, and the static Eq. 1
``auto`` pick) therefore loses some phase; the adaptive controller,
re-picking per-block paradigms from the measured load signals between
iterations, should win both.

Besides the shared wall-clock gate against
``benchmarks/BENCH_control.json``, the suite gates on the **structural
control win**, a pure simulated-time fact: the adaptive run's total
simulated seconds must beat *every* static paradigm's total on the same
drift trajectory.  That holds on any host; a violation means the control
policy regressed, not a slow runner.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .harness import BENCH_DIR, Suite, time_runs, timing

CONTROL_SCHEMA = "janus-repro/bench-control/v1"

# The crossover shape: batch 64 puts the 32-expert block's Eq. 1 gain
# ratio near 1 (R = 1.33 on two machines), where the measured ordering
# flips with skew — micro-batched EC wins balanced phases, data-centric
# wins Zipf-1.5 phases.
_EXPERTS = 32
_BATCH = 64
_MACHINES = 2
_ITERATIONS = 8
_AUTO_THRESHOLD = 1.5

# Drift schedule shared by every run: two balanced iterations, two
# skewed, repeating.  Deterministic per (seed, iteration, block).
_DRIFT = dict(kind="flip", skew=1.5, period=2, seed=7)

# The controller recovers after a single calm observation: the deviation
# signal comes from exact routing aggregates (not noisy samples), so one
# clean reading is decisive and keeps the adaptation lag at zero.
_CONTROL = dict(recover_after_clean=1)


class ControlBenchConfig(NamedTuple):
    """One timed drift schedule: a static paradigm or the adaptive run."""

    mode: str
    adaptive: bool = False

    @property
    def key(self) -> str:
        return "adaptive" if self.adaptive else self.mode


CONTROL_FULL_CONFIGS: Tuple[ControlBenchConfig, ...] = (
    ControlBenchConfig("data-centric"),
    ControlBenchConfig("expert-centric"),
    ControlBenchConfig("pipelined-ec"),
    ControlBenchConfig("microbatch-ec"),
    ControlBenchConfig("auto"),
    ControlBenchConfig("auto", adaptive=True),
)

# CI smoke subset: the adaptive run against the strongest static.
CONTROL_QUICK_CONFIGS: Tuple[ControlBenchConfig, ...] = (
    ControlBenchConfig("microbatch-ec"),
    ControlBenchConfig("auto", adaptive=True),
)


def _build_engine(spec: ControlBenchConfig):
    from ..cluster import Cluster
    from ..config import moe_gpt
    from ..control import ControlConfig, Controller, ControlPolicy
    from ..core import JanusFeatures, build_workload, engine_for
    from ..workloads import DriftSpec

    config = moe_gpt(_EXPERTS).scaled(batch_size=_BATCH)
    cluster = Cluster(_MACHINES)
    workload = build_workload(config, cluster)
    features = JanusFeatures(micro_batches=4, grad_allreduce="overlap")
    controller = Controller(
        policy=(
            ControlPolicy(config=ControlConfig(**_CONTROL))
            if spec.adaptive
            else None
        ),
        drift=DriftSpec(**_DRIFT),
    )
    kwargs = dict(
        workload=workload, features=features, controller=controller,
        check_memory=False,
    )
    if spec.mode in ("auto", "unified"):
        kwargs["threshold"] = _AUTO_THRESHOLD
    return engine_for(spec.mode, config, cluster, **kwargs), controller


def time_control_config(spec: ControlBenchConfig, runs: int = 1) -> Dict:
    """Time ``runs`` cold drift schedules of one config; report the median.

    Each run is a fresh engine + fresh workload driven through the full
    ``_ITERATIONS``-step drift trajectory, so every config — static or
    adaptive — sees bit-identical workload evolution.
    """
    samples, (results, controller) = time_runs(
        runs,
        lambda built: (built[0].run(_ITERATIONS), built[1]),
        lambda: _build_engine(spec),
    )
    entry = timing(samples)
    events = sum(result.sim_events for result in results)
    entry.update(
        sim_seconds=sum(result.seconds for result in results),
        per_iteration_ms=[
            round(result.seconds * 1e3, 3) for result in results
        ],
        events=events,
        events_per_s=events / entry["median_s"],
        switches=controller.switch_count,
    )
    return entry


def check_control_wins(current: Dict) -> List[str]:
    """Structural gate: adaptive must beat every static in simulated time."""
    problems = []
    runs = current.get("runs", {})
    adaptive = runs.get("adaptive")
    if adaptive is None:
        return ["capture has no 'adaptive' run to gate on"]
    fast = adaptive["sim_seconds"]
    for key, entry in runs.items():
        if key == "adaptive":
            continue
        slow = entry["sim_seconds"]
        if fast >= slow:
            problems.append(
                f"adaptive: simulated {fast * 1e3:.2f} ms total does not "
                f"beat static {key} ({slow * 1e3:.2f} ms total)"
            )
    return problems


def _vs_adaptive(entry: Dict, base: Optional[Dict]) -> str:
    if not base or base["sim_seconds"] <= 0:
        return "-"
    return f"{entry['sim_seconds'] / base['sim_seconds']:.2f}x"


SUITE = Suite(
    name="control",
    summary="adaptive controller vs static paradigms under drift",
    schema=CONTROL_SCHEMA,
    snapshot=BENCH_DIR / "BENCH_control.json",
    full=CONTROL_FULL_CONFIGS,
    quick=CONTROL_QUICK_CONFIGS,
    # Every config is a full multi-iteration drift schedule, so one run
    # per config is already a stable median.
    runs=(1, 1),
    unit="schedule",
    measure=time_control_config,
    describe=lambda configs, runs: {
        "model": "MoE-GPT",
        "experts": _EXPERTS,
        "batch_size": _BATCH,
        "machines": _MACHINES,
        "iterations": _ITERATIONS,
        "auto_threshold": _AUTO_THRESHOLD,
        "drift": dict(_DRIFT),
        "control": dict(_CONTROL),
        "runs": runs,
    },
    columns=(
        ("sim ms total",
         lambda entry, _: f"{entry['sim_seconds'] * 1e3:.2f}"),
        ("vs adaptive", _vs_adaptive),
        ("switches", lambda entry, _: f"{entry['switches']:d}"),
        ("events", lambda entry, _: f"{entry['events']:d}"),
    ),
    gates=lambda current, snapshot, scale: check_control_wins(current),
    baseline="adaptive",
)
