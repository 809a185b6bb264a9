"""``repro bench --suite schedules``: the task-graph-only schedules.

Times the mixed-R MoE-GPT configuration — one 32-expert block where the
expert-centric family wins and one 256-expert block where data-centric
wins — under the schedules the task graph unlocked: plain expert-centric
(the baseline), micro-batched expert-centric, serial vs. overlapped
backward gradient all-reduce, the schedule-aware ``auto`` engine, chunk
autotuning and intra-A2A chunk staggering.

Besides the shared wall-clock gate against
``benchmarks/BENCH_schedules.json``, the suite gates on the **structural
schedule wins**, which are pure simulated-time facts: micro-batching must
beat plain expert-centric, the overlapped all-reduce the serial one, and
so on (:data:`STRUCTURAL_WINS`, :func:`check_autotune_win`).  These hold
on any host; a violation means a schedule regression, not a slow runner.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .harness import BENCH_DIR, Suite, time_iterations

SCHEDULES_SCHEMA = "janus-repro/bench-schedules/v1"

# The mixed-R shape: moe_gpt(32) with block 10 widened to 256 experts.
_MIXED_EXPERTS = {6: 32, 10: 256}
_MACHINES = 4

# Alternative GPU specs for the chunk-sensitive configurations.  On the
# default A100 both mixed-R blocks are deeply comm-bound: the launch
# overhead hides entirely behind the serialized All-to-All chunks, so the
# chunk count barely moves simulated time and any M >= 2 ties.  "tight"
# models a compute-tight accelerator (quarter of the sustained FLOPS,
# 10x the per-kernel launch cost — an older part or one running
# fine-grained unfused experts), where compute and launch overhead sit on
# the critical path and per-block chunk choice genuinely matters: block 6
# (32 experts, 1/worker) wants many chunks, block 10 (256 experts,
# 8/worker) pays 8x the launch tax per extra chunk and wants few.
_GPU_SPECS = {
    "a100": None,
    "tight": {"flops": 45e12, "kernel_overhead": 480e-6},
}


class ScheduleBenchConfig(NamedTuple):
    """One timed schedule of the mixed-R model."""

    mode: str
    micro_batches: int = 1
    grad_allreduce: str = "none"
    # All-to-All chunking: a fixed count (JanusFeatures.ec_pipeline_chunks)
    # or "auto" for the cost-model chunk tuner; None keeps the default.
    chunks: Optional[object] = None
    # Intra-A2A chunk scheduling ("off", "wave", "chain").
    stagger: str = "off"
    # GPU spec name from _GPU_SPECS.
    gpu: str = "a100"

    @property
    def key(self) -> str:
        parts = [self.mode]
        if self.gpu != "a100":
            parts.append(self.gpu)
        if self.micro_batches > 1:
            parts.append(f"mb{self.micro_batches}")
        if self.chunks == "auto":
            parts.append("auto")
        elif self.chunks is not None:
            parts.append(f"c{self.chunks}")
        if self.grad_allreduce != "none":
            parts.append(f"ar-{self.grad_allreduce}")
        if self.stagger != "off":
            parts.append("stagger" if self.stagger == "chain" else
                         self.stagger)
        return "/".join(parts)


SCHEDULE_FULL_CONFIGS: Tuple[ScheduleBenchConfig, ...] = (
    ScheduleBenchConfig("expert-centric"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4),
    ScheduleBenchConfig("expert-centric", grad_allreduce="serial"),
    ScheduleBenchConfig("expert-centric", grad_allreduce="overlap"),
    ScheduleBenchConfig("auto", micro_batches=4),
    # Chunk autotuning: the tuner's per-block counts must beat every
    # fixed M on the compute-tight spec (and strictly beat at least one).
    ScheduleBenchConfig("pipelined-ec", chunks=1, gpu="tight"),
    ScheduleBenchConfig("pipelined-ec", chunks=2, gpu="tight"),
    ScheduleBenchConfig("pipelined-ec", chunks=4, gpu="tight"),
    ScheduleBenchConfig("pipelined-ec", chunks=8, gpu="tight"),
    ScheduleBenchConfig("pipelined-ec", chunks="auto", gpu="tight"),
    # Intra-A2A scheduling: arbitrated NIC fabric, unscheduled wave
    # launch vs. micro-round staggered grants.
    ScheduleBenchConfig("microbatch-ec", micro_batches=4, stagger="wave"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4, stagger="chain"),
)

# CI smoke subset: the headline structural wins plus their baselines —
# micro-batching vs. plain EC, tuned vs. best-fixed chunks, staggered
# vs. wave chunk sends.
SCHEDULE_QUICK_CONFIGS: Tuple[ScheduleBenchConfig, ...] = (
    ScheduleBenchConfig("expert-centric"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4),
    ScheduleBenchConfig("pipelined-ec", chunks=2, gpu="tight"),
    ScheduleBenchConfig("pipelined-ec", chunks="auto", gpu="tight"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4, stagger="wave"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4, stagger="chain"),
)


def _mixed_model():
    from ..config import moe_gpt

    return moe_gpt(32).scaled(experts_per_block=dict(_MIXED_EXPERTS))


def time_schedule_config(spec: ScheduleBenchConfig, runs: int = 2) -> Dict:
    """Time ``runs`` cold iterations of one schedule; report the median."""
    from ..cluster import Cluster
    from ..cluster.hardware import GpuSpec, MachineSpec
    from ..core import JanusFeatures, build_workload, engine_for

    config = _mixed_model()
    gpu_overrides = _GPU_SPECS[spec.gpu]
    machine = (
        MachineSpec(gpu=GpuSpec(**gpu_overrides))
        if gpu_overrides is not None
        else None
    )
    cluster = (
        Cluster(_MACHINES, spec=machine)
        if machine is not None
        else Cluster(_MACHINES)
    )
    workload = build_workload(config, cluster)
    feature_kwargs = {}
    if spec.chunks == "auto":
        feature_kwargs["chunk_autotune"] = True
    elif spec.chunks is not None:
        feature_kwargs["ec_pipeline_chunks"] = spec.chunks
    features = JanusFeatures(
        micro_batches=spec.micro_batches,
        grad_allreduce=spec.grad_allreduce,
        a2a_stagger=spec.stagger,
        **feature_kwargs,
    )
    return time_iterations(runs, lambda: engine_for(
        spec.mode, config, cluster, workload=workload,
        features=features, check_memory=False,
    ))


def _describe(configs: Sequence[ScheduleBenchConfig], runs: int) -> Dict:
    return {
        "model": "MoE-GPT",
        "experts_per_block": {
            str(block): count
            for block, count in sorted(_MIXED_EXPERTS.items())
        },
        "machines": _MACHINES,
        "runs": runs,
    }


# (faster key, slower key) — simulated-time orderings the schedules must
# preserve on every host.  Pairs whose keys a capture did not run (the
# --quick subset) are skipped.
STRUCTURAL_WINS: Tuple[Tuple[str, str], ...] = (
    ("microbatch-ec/mb4", "expert-centric"),
    ("expert-centric/ar-overlap", "expert-centric/ar-serial"),
    ("auto/mb4", "expert-centric"),
    # Intra-A2A chunk scheduling: with the NIC fabric arbitrated, the
    # micro-round stagger must beat the unscheduled wave launch.
    ("microbatch-ec/mb4/stagger", "microbatch-ec/mb4/wave"),
)

# Chunk-autotune gate: the tuned run must be no slower than *every* fixed
# chunk count captured for the same schedule/spec, and strictly faster
# than at least one of them (else the tuner is dead weight).
AUTOTUNE_WIN: Tuple[str, str] = ("pipelined-ec/tight/auto",
                                 "pipelined-ec/tight/c")


def check_autotune_win(current: Dict) -> List[str]:
    """The cost-model-tuned chunks must dominate the fixed-M sweep."""
    runs = current.get("runs", {})
    auto_key, fixed_prefix = AUTOTUNE_WIN
    if auto_key not in runs:
        return []
    fixed = {
        key: entry["sim_seconds"]
        for key, entry in runs.items()
        if key.startswith(fixed_prefix)
    }
    if not fixed:
        return []
    auto = runs[auto_key]["sim_seconds"]
    problems = []
    for key, seconds in sorted(fixed.items()):
        if auto > seconds:
            problems.append(
                f"{auto_key}: simulated {auto * 1e3:.2f} ms/iter is slower "
                f"than fixed {key} ({seconds * 1e3:.2f} ms/iter)"
            )
    if not problems and not any(auto < seconds
                                for seconds in fixed.values()):
        problems.append(
            f"{auto_key}: simulated {auto * 1e3:.2f} ms/iter beats no "
            f"fixed chunk count (tuner is dead weight)"
        )
    return problems


def check_schedule_wins(current: Dict) -> List[str]:
    """Structural gate: the schedule speedups must hold in simulated time."""
    problems = []
    runs = current.get("runs", {})
    for fast_key, slow_key in STRUCTURAL_WINS:
        if fast_key not in runs or slow_key not in runs:
            continue
        fast = runs[fast_key]["sim_seconds"]
        slow = runs[slow_key]["sim_seconds"]
        if fast >= slow:
            problems.append(
                f"{fast_key}: simulated {fast * 1e3:.2f} ms/iter does not "
                f"beat {slow_key} ({slow * 1e3:.2f} ms/iter)"
            )
    problems.extend(check_autotune_win(current))
    return problems


def _speedup(entry: Dict, base: Optional[Dict]) -> str:
    sim = entry["sim_seconds"]
    if not base or sim <= 0:
        return "-"
    return f"{base['sim_seconds'] / sim:.2f}x"


SUITE = Suite(
    name="schedules",
    summary="task-graph schedules on the mixed-R model",
    schema=SCHEDULES_SCHEMA,
    snapshot=BENCH_DIR / "BENCH_schedules.json",
    full=SCHEDULE_FULL_CONFIGS,
    quick=SCHEDULE_QUICK_CONFIGS,
    runs=(2, 1),
    unit="iter",
    measure=time_schedule_config,
    describe=_describe,
    columns=(
        ("sim ms/iter",
         lambda entry, _: f"{entry['sim_seconds'] * 1e3:.2f}"),
        ("vs EC", _speedup),
        ("events", lambda entry, _: f"{entry['events']:d}"),
    ),
    gates=lambda current, snapshot, scale: check_schedule_wins(current),
    baseline="expert-centric",
)
