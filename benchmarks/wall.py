"""Wall-clock benchmark suites: how fast the simulator and the runtime run.

    PYTHONPATH=src python benchmarks/wall.py [--suite NAME|all] [--quick]
                                             [--check] [--write] [--out FILE]

Everything else in the repo measures *simulated* time; this script
measures *host* time, so hot-path work has a number to move and a
regression has a number to trip on.  Six suites, each with a committed
snapshot under ``benchmarks/`` whose ``history`` list keeps labelled prior
captures:

* ``sim``       — the Fig. 14 configs, one iteration each (``BENCH_speed.json``);
* ``runtime``   — numerical trainer steps (``BENCH_runtime.json``);
* ``schedules`` — the task-graph schedules on the mixed-R model;
* ``control``   — an 8-iteration drift schedule, adaptive vs static;
* ``serving``   — seeded arrival traces on both serving topologies;
* ``scale``     — MoE-GPT expert-centric from 8 to 128 machines.

Every sample runs inside :class:`Speedometer` of ``e2e/calibration.py``
and is stored as seconds at the end-to-end benchmark's reference host
speed, so a capture compares directly with a snapshot taken on another
host.  ``--check`` exits 1 when a median exceeds the committed one by more
than ``BAND`` or a suite's wall gate fails, and 2 when a snapshot is
missing; every selected suite runs either way.  ``--write`` re-captures
the snapshot from ``SNAPSHOT_CAPTURES`` captures, per config the one with
the median median, and keeps its ``history``.  ``--out`` also writes the
fresh captures, keyed by suite.  The simulated-time facts the suites exercise
(schedule wins, adaptive beats static, disaggregated p99 TPOT) are gated
by ``test_bench_gates.py``, which reads no clock.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from e2e.calibration import REFERENCE_S, Speedometer

HERE = Path(__file__).resolve().parent

# A median may exceed the committed one by this fraction.
BAND = 0.25

# ``--write`` commits the pool of this many captures, taken in rounds over
# the selected suites.  On a shared host one capture's medians move by
# about 15% with the other tenants' load: a snapshot from one capture in
# a calm stretch sets medians that checks in busier stretches miss by
# more than the band.
SNAPSHOT_CAPTURES = 5

# The rescale factor REFERENCE_S / mean slice is clamped, so a
# mis-measured slice can neither absorb a real regression nor invent one.
RESCALE_BOUNDS = (0.2, 5.0)


def _no_gates(current: Dict, snapshot: Dict) -> List[str]:
    return []


class Suite(NamedTuple):
    """One wall-clock suite.

    ``measure(spec, runs)`` times one config and returns its ``runs``
    entry (at least ``median_s``); ``describe(configs, runs)`` is the
    capture's ``config`` section; ``gates(current, snapshot)`` returns the
    suite's own wall-clock problems.
    """

    name: str
    schema: str
    snapshot: Path
    full: Tuple
    quick: Tuple
    # Timed samples per config.  A single sample of a sub-second config
    # is scheduler noise: every sub-second config takes at least three.
    runs: int
    unit: str               # what one timed sample covers
    measure: Callable[[Any, int], Dict]
    describe: Callable[[Sequence, int], Dict]
    gates: Callable[[Dict, Dict], List[str]] = _no_gates


def time_runs(
    runs: int,
    body: Callable[[Any], Any],
    setup: Callable[[], Any] = lambda: None,
) -> Tuple[List[float], Any]:
    """``runs`` samples of ``body(setup())``, in seconds at the reference
    speed, and the last ``body`` result.

    ``setup`` runs outside the timer.  The cyclic garbage collector runs
    before each sample and is held off inside it: generation-2
    collections scan the whole live object graph, which at 128 machines
    is ~300k flow/event objects, a superlinear term of allocator policy
    rather than of the code under test.  The calibration slices the
    speedometer takes during a sample are left out of its seconds.  One
    factor, from the slices of every sample, rescales them all: a sample
    of a few tens of milliseconds spans only two slices, and rescaling
    each by its own factor made the best sample the one whose slices ran
    slowest (on a shared 2-vCPU host, four captures of the 8-machine
    point ranged from 2.4 to 2.9 us per event).
    """
    walls: List[float] = []
    slices: List[float] = []
    result = None
    for _ in range(runs):
        state = setup()
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            speedometer = Speedometer()
            with speedometer:
                started = time.perf_counter()
                result = body(state)
                ended = time.perf_counter()
        finally:
            if gc_was_enabled:
                gc.enable()
        walls.append(ended - started - speedometer.paused)
        slices.extend(speedometer.slices)
    low, high = RESCALE_BOUNDS
    factor = min(max(REFERENCE_S / statistics.fmean(slices), low), high)
    return [wall * factor for wall in walls], result


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


# -- sim: the Fig. 14 configs ------------------------------------------------


class BenchConfig(NamedTuple):
    """One timed simulation configuration (a Fig. 14 comparison point)."""

    model: str
    mode: str
    experts: int = 32
    machines: int = 4

    @property
    def key(self) -> str:
        return f"{self.model}/{self.mode}"


_MODES = ("expert-centric", "data-centric", "pipelined-ec", "unified")
_MODELS = ("MoE-BERT", "MoE-GPT", "MoE-Transformer-xl")

FULL_CONFIGS: Tuple[BenchConfig, ...] = tuple(
    BenchConfig(model, mode) for model in _MODELS for mode in _MODES
)

# CI smoke subset: the headline model under the three paradigms the paper
# compares head-to-head.
QUICK_CONFIGS: Tuple[BenchConfig, ...] = tuple(
    BenchConfig("MoE-GPT", mode)
    for mode in ("expert-centric", "data-centric", "unified")
)


def time_config(spec: BenchConfig, runs: int) -> Dict:
    """Time ``runs`` cold iterations of one config; report the median."""
    from repro.cluster import Cluster
    from repro.config import TABLE1_MODELS
    from repro.core import JanusFeatures, build_workload, engine_for

    config = TABLE1_MODELS[spec.model](spec.experts)
    cluster = Cluster(spec.machines)
    workload = build_workload(config, cluster)
    features = JanusFeatures(topology_aware=True, prefetch=True)
    return time_iterations(runs, lambda: engine_for(
        spec.mode, config, cluster, workload=workload, features=features
    ))


# -- runtime: numerical trainer steps ----------------------------------------

# Steps run before timing: fills the replica pool, allocates optimizer
# state.
_WARMUP = 1


class RuntimeBenchConfig(NamedTuple):
    """One timed trainer-step configuration."""

    model: str
    mode: str  # "expert-centric" | "data-centric"
    machines: int = 2
    workers: int = 2

    @property
    def key(self) -> str:
        return f"{self.model}/{self.mode}"


RUNTIME_FULL_CONFIGS: Tuple[RuntimeBenchConfig, ...] = tuple(
    RuntimeBenchConfig(model, mode)
    for model in ("trainer-small", "trainer-moe-gpt")
    for mode in ("expert-centric", "data-centric")
)

# CI smoke subset: one steady-state trainer config (data-centric exercises
# the replica pool as well as the sorted dispatch path).
RUNTIME_QUICK_CONFIGS: Tuple[RuntimeBenchConfig, ...] = (
    RuntimeBenchConfig("trainer-moe-gpt", "data-centric"),
)


def _runtime_model_config(name: str):
    """Numerics-scale model shapes.

    ``trainer-moe-gpt`` keeps MoE-GPT's block layout (causal decoder, one
    late MoE block, top_k=4) at a width the float64 numpy engine can step
    in tens of milliseconds; ``trainer-small`` is the smoke shape.
    """
    from repro.config import ModelConfig

    if name == "trainer-small":
        return ModelConfig(
            name="trainer-small", batch_size=4, seq_len=8, top_k=2,
            hidden_dim=32, num_blocks=2, experts_per_block={1: 8},
            num_heads=4, vocab_size=128, causal=True,
        )
    if name == "trainer-moe-gpt":
        return ModelConfig(
            name="trainer-moe-gpt", batch_size=4, seq_len=32, top_k=4,
            hidden_dim=64, num_blocks=4, experts_per_block={3: 16},
            num_heads=8, vocab_size=256, causal=True,
        )
    raise ValueError(f"unknown runtime bench model: {name!r}")


def _build_trainer(spec: RuntimeBenchConfig):
    from repro.runtime import DistributedMoETransformer, DistributedTrainer, RankLayout
    from repro.tensorlib import Adam

    config = _runtime_model_config(spec.model)
    layout = RankLayout(spec.machines, spec.workers)
    moe_blocks = {index: spec.mode for index in config.moe_block_indices}
    model = DistributedMoETransformer(
        config, layout, paradigm_for_block=moe_blocks,
        rng=np.random.default_rng(0),
    )
    trainer = DistributedTrainer(model, Adam(model.parameters(), lr=1e-3))
    rng = np.random.default_rng(1)
    shape = (config.batch_size, config.seq_len)
    batches = [
        rng.integers(0, config.vocab_size, size=shape)
        for _ in range(layout.world_size)
    ]
    targets = [
        rng.integers(0, config.vocab_size, size=shape)
        for _ in range(layout.world_size)
    ]
    return config, layout, trainer, batches, targets


def _default_dtype() -> str:
    from repro.tensorlib import get_default_dtype

    return get_default_dtype().name


def time_runtime_config(spec: RuntimeBenchConfig, runs: int) -> Dict:
    """Time ``runs`` steady-state trainer steps; report the median.

    Model/optimizer construction and ``_WARMUP`` steps happen outside the
    timed region, so the number is seconds per
    :meth:`DistributedTrainer.step` in steady state.
    """
    config, layout, trainer, batches, targets = _build_trainer(spec)
    for _ in range(_WARMUP):
        trainer.step(batches, targets)
    samples, _ = time_runs(runs, lambda _: trainer.step(batches, targets))
    entry = timing(samples)
    # Routed token-slots per step across all workers: B*S*k per worker.
    slots = config.tokens_per_worker * layout.world_size
    entry.update(
        token_slots=slots,
        token_slots_per_s=slots / entry["median_s"],
        loss=trainer.last_loss,
    )
    return entry


def check_dtype(current: Dict, snapshot: Dict) -> List[str]:
    """float32 runs ~2x faster: comparing across dtypes would either mask
    or fake a regression."""
    snap_dtype = snapshot.get("config", {}).get("dtype")
    cur_dtype = current.get("config", {}).get("dtype")
    if snap_dtype == cur_dtype:
        return []
    return [
        f"dtype mismatch: capture is {cur_dtype}, snapshot is "
        f"{snap_dtype} (timings are not comparable)"
    ]


# -- schedules: the task-graph schedules on the mixed-R model ----------------

# The mixed-R shape: moe_gpt(32) with block 10 widened to 256 experts.
_MIXED_EXPERTS = {6: 32, 10: 256}
_MIXED_MACHINES = 4

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
    # Chunk autotuning on the compute-tight spec: the tuned counts against
    # every fixed M.
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

# CI smoke subset: micro-batching vs. plain EC, tuned vs. fixed chunks,
# staggered vs. wave chunk sends.
SCHEDULE_QUICK_CONFIGS: Tuple[ScheduleBenchConfig, ...] = (
    ScheduleBenchConfig("expert-centric"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4),
    ScheduleBenchConfig("pipelined-ec", chunks=2, gpu="tight"),
    ScheduleBenchConfig("pipelined-ec", chunks="auto", gpu="tight"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4, stagger="wave"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4, stagger="chain"),
)


def schedule_engines(spec: ScheduleBenchConfig) -> Callable[[], Any]:
    """A factory of fresh engines running one schedule of the mixed-R
    model; the model, cluster and workload are built once."""
    from repro.cluster import Cluster
    from repro.cluster.hardware import GpuSpec, MachineSpec
    from repro.config import moe_gpt
    from repro.core import JanusFeatures, build_workload, engine_for

    config = moe_gpt(32).scaled(experts_per_block=dict(_MIXED_EXPERTS))
    gpu_overrides = _GPU_SPECS[spec.gpu]
    cluster = (
        Cluster(_MIXED_MACHINES, spec=MachineSpec(gpu=GpuSpec(**gpu_overrides)))
        if gpu_overrides is not None
        else Cluster(_MIXED_MACHINES)
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
    return lambda: engine_for(
        spec.mode, config, cluster, workload=workload,
        features=features, check_memory=False,
    )


def time_schedule_config(spec: ScheduleBenchConfig, runs: int) -> Dict:
    """Time ``runs`` cold iterations of one schedule; report the median."""
    return time_iterations(runs, schedule_engines(spec))


# -- control: the adaptive control plane under drift -------------------------

# The crossover shape: batch 64 puts the 32-expert block's Eq. 1 gain
# ratio near 1 (R = 1.33 on two machines), where the measured ordering
# flips with skew — micro-batched EC wins balanced phases, data-centric
# wins Zipf-1.5 phases.
_CONTROL_EXPERTS = 32
_CONTROL_BATCH = 64
_CONTROL_MACHINES = 2
CONTROL_ITERATIONS = 8
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


def control_engine(spec: ControlBenchConfig):
    """A fresh engine on the drift trajectory, and its controller."""
    from repro.cluster import Cluster
    from repro.config import moe_gpt
    from repro.control import ControlConfig, Controller, ControlPolicy
    from repro.core import JanusFeatures, build_workload, engine_for
    from repro.workloads import DriftSpec

    config = moe_gpt(_CONTROL_EXPERTS).scaled(batch_size=_CONTROL_BATCH)
    cluster = Cluster(_CONTROL_MACHINES)
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


def time_control_config(spec: ControlBenchConfig, runs: int) -> Dict:
    """Time ``runs`` cold drift schedules of one config; report the median.

    Each run is a fresh engine + fresh workload driven through the full
    ``CONTROL_ITERATIONS``-step drift trajectory, so every config — static
    or adaptive — sees bit-identical workload evolution.
    """
    samples, (results, controller) = time_runs(
        runs,
        lambda built: (built[0].run(CONTROL_ITERATIONS), built[1]),
        lambda: control_engine(spec),
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


# -- serving: request-level serving traces -----------------------------------

# Cluster/model shape shared by every run: the sim suite's MoE-GPT shape
# on four machines — two prefillers + two decoders when disaggregated.
_SERVING_EXPERTS = 32
_SERVING_MACHINES = 4

# Seeded arrival traces (request count is filled per config).  The skewed
# trace is the canonical one: rate 3000/s saturates unified workers hard
# enough that prefill head-of-line blocking dominates the decode tail,
# and Zipf-1.2 popularity gives decode-side pinning real hits.
_TRACES: Dict[str, str] = {
    "skewed": (
        "poisson;rate=3000;seed=7;skew=1.2;prompt_mean=128;output_mean=32"
    ),
    "uniform": (
        "poisson;rate=3000;seed=11;prompt_mean=128;output_mean=32"
    ),
    "diurnal": (
        "diurnal;rate=2500;amplitude=0.8;period=4;seed=13;"
        "prompt_mean=128;output_mean=32;skew=1.2"
    ),
    "bursty": (
        "bursty;rate=2000;burst=4;duty=0.2;seed=17;"
        "prompt_mean=128;output_mean=32;skew=1.2"
    ),
}


class ServingBenchConfig(NamedTuple):
    """One timed serving run: a named trace of ``requests`` on one
    topology."""

    trace: str
    topology: str
    requests: int

    @property
    def key(self) -> str:
        return f"{self.trace}/{self.topology}/{self.requests}"


# CI smoke subset: the skewed pair at 8,000 requests (the `serving` golden
# of tests/goldens.py pins its latency digest).
SERVING_QUICK_CONFIGS: Tuple[ServingBenchConfig, ...] = (
    ServingBenchConfig("skewed", "unified", 8_000),
    ServingBenchConfig("skewed", "disaggregated", 8_000),
)

SERVING_FULL_CONFIGS: Tuple[ServingBenchConfig, ...] = SERVING_QUICK_CONFIGS + (
    ServingBenchConfig("skewed", "unified", 50_000),
    ServingBenchConfig("skewed", "disaggregated", 50_000),
    ServingBenchConfig("uniform", "unified", 20_000),
    ServingBenchConfig("uniform", "disaggregated", 20_000),
    ServingBenchConfig("diurnal", "disaggregated", 20_000),
    ServingBenchConfig("bursty", "unified", 20_000),
)


def serving_inputs(spec: ServingBenchConfig) -> Tuple:
    """The arguments of :func:`repro.serving.simulate_serving` for one
    config, built fresh."""
    from repro.cluster import Cluster
    from repro.config import moe_gpt
    from repro.serving import ServingConfig, TraceSpec, generate_trace

    trace_spec = TraceSpec.parse(
        f"{_TRACES[spec.trace]};requests={spec.requests}"
    )
    return (
        moe_gpt(_SERVING_EXPERTS),
        Cluster(_SERVING_MACHINES),
        generate_trace(trace_spec),
        ServingConfig(topology=spec.topology),
    )


def time_serving_config(spec: ServingBenchConfig, runs: int) -> Dict:
    """Time ``runs`` cold serving runs of one config; report the median.

    Each run regenerates the trace and rebuilds the cluster/fabric, so
    the sample includes exactly what ``repro serve`` pays.  The simulated
    facts are bit-identical across runs; the final run's are reported.
    """
    from repro.serving import simulate_serving

    samples, result = time_runs(
        runs, lambda _: simulate_serving(*serving_inputs(spec))
    )
    entry = timing(samples)
    summary = result.summary()
    events = int(summary.get("sim_events", 0))
    entry.update(
        events=events,
        events_per_s=events / entry["median_s"],
        requests=summary.get("requests", 0),
        # Unserved requests keep the -1.0 sentinel completion stamp.
        completed_ok=bool((result.complete_s >= 0.0).all()),
        digest=result.digest(),
        **{
            field: summary.get(field, 0.0)
            for field in (
                "makespan_s", "ttft_p50_ms", "ttft_p99_ms", "tpot_p50_ms",
                "tpot_p99_ms", "slo_attainment", "goodput_rps", "nic_gb",
            )
        },
        paradigms=summary.get("paradigms", {}),
    )
    return entry


# -- scale: fleet sizes from 8 to 128 machines -------------------------------

# Per-event seconds may grow at most this much from the smallest to the
# largest fleet of a capture spanning at least a 4x machine range.
MAX_PER_EVENT_GROWTH = 1.3

# One simulated iteration at the largest fleet, in seconds at the
# reference speed.
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


# Small points are cheap enough to sample five times (the median then
# shrugs off scheduler noise and the slower first sample of a fleet size);
# the 128-machine point is long enough to be its own noise floor and
# doubles up iterations to cross 1M events.
SCALE_FULL_CONFIGS: Tuple[ScaleBenchConfig, ...] = (
    ScaleBenchConfig(machines=8, runs=5),
    ScaleBenchConfig(machines=16, runs=5),
    ScaleBenchConfig(machines=32, runs=2),
    ScaleBenchConfig(machines=64, runs=2),
    # Two samples: the first 128-machine run pays cold page faults for
    # gigabyte-scale flow tables; the best sample reflects steady state.
    ScaleBenchConfig(machines=128, iterations=2, runs=2),
)

# CI smoke subset: the two sub-second points.  Their 2x machine range is
# too narrow for the growth law to engage.
SCALE_QUICK_CONFIGS: Tuple[ScaleBenchConfig, ...] = SCALE_FULL_CONFIGS[:2]


def time_scale_config(spec: ScaleBenchConfig, runs: int) -> Dict:
    """Time one weak-scaling point; the median is seconds per iteration.

    ``runs`` overrides the point's own sample count when positive.
    """
    from repro.cluster import Cluster
    from repro.config import TABLE1_MODELS
    from repro.core import JanusFeatures, build_workload, engine_for

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
    # median gate uses — a regression should shift the whole distribution,
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


def check_scale(current: Dict, snapshot: Dict) -> List[str]:
    """The per-event growth law and the top-point iteration budget.

    Per-event cost from the smallest to the largest fleet must not grow
    beyond ``MAX_PER_EVENT_GROWTH``.  The law only engages when the
    capture spans at least a 4x machine range: between adjacent fleet
    sizes the per-event delta is scheduler noise (sub-second points swing
    +-20% on a busy one-core runner), not scaling structure.
    """
    points = sorted(
        current.get("runs", {}).values(), key=lambda entry: entry["machines"]
    )
    if not points:
        return ["scaling law needs at least two fleet sizes in the capture"]
    first, last = points[0], points[-1]
    problems = []
    if len(points) < 2:
        problems.append(
            "scaling law needs at least two fleet sizes in the capture"
        )
    elif last["machines"] < 4 * first["machines"]:
        pass    # too narrow a range for the law to engage
    elif first["per_event_us"] <= 0:
        problems.append("smallest point reported no events")
    else:
        growth = last["per_event_us"] / first["per_event_us"]
        if not growth <= MAX_PER_EVENT_GROWTH:
            problems.append(
                f"per-event cost grows {growth:.2f}x from "
                f"{first['machines']}m ({first['per_event_us']:.2f} us) to "
                f"{last['machines']}m ({last['per_event_us']:.2f} us); "
                f"allowed {MAX_PER_EVENT_GROWTH:.2f}x"
            )
    if not last["median_s"] <= TOP_ITERATION_BUDGET_S:
        problems.append(
            f"{last['machines']}m iteration takes {last['median_s']:.2f} s "
            f"vs budget {TOP_ITERATION_BUDGET_S:.0f} s"
        )
    return problems


# -- the suites --------------------------------------------------------------


def _scale_describe(configs: Sequence[ScaleBenchConfig], runs: int) -> Dict:
    return {
        "model": configs[0].model,
        "mode": configs[0].mode,
        "machines": [spec.machines for spec in configs],
        "features": "topology_aware+prefetch",
    }


SUITES: Dict[str, Suite] = {suite.name: suite for suite in (
    Suite(
        name="sim",
        schema="janus-repro/bench-speed/v2",
        snapshot=HERE / "BENCH_speed.json",
        full=FULL_CONFIGS,
        quick=QUICK_CONFIGS,
        runs=3,
        unit="iter",
        measure=time_config,
        describe=lambda configs, runs: {
            "experts": configs[0].experts,
            "machines": configs[0].machines,
            "features": "full",
            "runs": runs,
        },
    ),
    Suite(
        name="runtime",
        schema="janus-repro/bench-runtime/v2",
        snapshot=HERE / "BENCH_runtime.json",
        full=RUNTIME_FULL_CONFIGS,
        quick=RUNTIME_QUICK_CONFIGS,
        runs=5,
        unit="step",
        measure=time_runtime_config,
        describe=lambda configs, runs: {
            "runs": runs, "warmup": _WARMUP, "dtype": _default_dtype(),
        },
        gates=check_dtype,
    ),
    Suite(
        name="schedules",
        schema="janus-repro/bench-schedules/v2",
        snapshot=HERE / "BENCH_schedules.json",
        full=SCHEDULE_FULL_CONFIGS,
        quick=SCHEDULE_QUICK_CONFIGS,
        # 30-150 ms iterations whose samples spread by up to 50%.
        runs=5,
        unit="iter",
        measure=time_schedule_config,
        describe=lambda configs, runs: {
            "model": "MoE-GPT",
            "experts_per_block": {
                str(block): count
                for block, count in sorted(_MIXED_EXPERTS.items())
            },
            "machines": _MIXED_MACHINES,
            "runs": runs,
        },
    ),
    Suite(
        name="control",
        schema="janus-repro/bench-control/v2",
        snapshot=HERE / "BENCH_control.json",
        full=CONTROL_FULL_CONFIGS,
        quick=CONTROL_QUICK_CONFIGS,
        runs=3,
        unit="schedule",
        measure=time_control_config,
        describe=lambda configs, runs: {
            "model": "MoE-GPT",
            "experts": _CONTROL_EXPERTS,
            "batch_size": _CONTROL_BATCH,
            "machines": _CONTROL_MACHINES,
            "iterations": CONTROL_ITERATIONS,
            "auto_threshold": _AUTO_THRESHOLD,
            "drift": dict(_DRIFT),
            "control": dict(_CONTROL),
            "runs": runs,
        },
    ),
    Suite(
        name="serving",
        schema="janus-repro/bench-serving/v2",
        snapshot=HERE / "BENCH_serving.json",
        full=SERVING_FULL_CONFIGS,
        quick=SERVING_QUICK_CONFIGS,
        runs=3,
        unit="trace",
        measure=time_serving_config,
        describe=lambda configs, runs: {
            "model": "MoE-GPT",
            "experts": _SERVING_EXPERTS,
            "machines": _SERVING_MACHINES,
            "traces": {spec.trace: _TRACES[spec.trace] for spec in configs},
            "runs": runs,
        },
    ),
    Suite(
        name="scale",
        schema="janus-repro/bench-scale/v2",
        snapshot=HERE / "BENCH_scale.json",
        full=SCALE_FULL_CONFIGS,
        quick=SCALE_QUICK_CONFIGS,
        runs=0,     # each point's own sample count
        unit="iter",
        measure=time_scale_config,
        describe=_scale_describe,
        gates=check_scale,
    ),
)}


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def capture(suite: Suite, configs: Sequence, runs: int) -> Dict:
    """Time ``configs`` and assemble the suite's capture.

    One untimed run of the first config comes first, so no timed sample
    pays first-use costs (imports, compiling the native cores, numpy
    warm-up).  Configs then run one after another, never in a process
    pool: concurrent workers would time each other's contention, not the
    code under test.
    """
    suite.measure(configs[0], 1)
    start = time.perf_counter()
    runs_section = {spec.key: suite.measure(spec, runs) for spec in configs}
    wall_s = time.perf_counter() - start
    return {
        "schema": suite.schema,
        "config": suite.describe(configs, runs),
        "host": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpus": _cpu_count(),
        },
        "runs": runs_section,
        "wall_s": wall_s,
    }


def check(suite: Suite, current: Dict, snapshot: Dict) -> List[str]:
    """The suite's wall gates, then the median gate of every config the
    capture ran.  Returns the violations (empty = pass)."""
    problems = list(suite.gates(current, snapshot))
    snap_runs = snapshot.get("runs", {})
    for key, entry in sorted(current["runs"].items()):
        if key not in snap_runs:
            problems.append(f"{key}: not in committed snapshot (run --write)")
            continue
        snap = snap_runs[key]["median_s"]
        allowed = snap * (1.0 + BAND)
        if not entry["median_s"] <= allowed:
            problems.append(
                f"{key}: median {entry['median_s'] * 1e3:.1f} ms/{suite.unit}"
                f" vs allowed {allowed * 1e3:.1f} ms/{suite.unit} "
                f"(snapshot {snap * 1e3:.1f} ms + {BAND:.0%})"
            )
    return problems


def pool(captures: Sequence[Dict]) -> Dict:
    """One capture of the configs ``captures`` all ran: per config, the
    entry whose median is the median of theirs."""
    runs = {}
    for key in captures[0]["runs"]:
        entries = sorted(
            (current["runs"][key] for current in captures),
            key=lambda entry: entry["median_s"],
        )
        runs[key] = entries[len(entries) // 2]
    wall_s = sum(current["wall_s"] for current in captures)
    return dict(captures[0], runs=runs, wall_s=wall_s)


def write_snapshot(path: Path, current: Dict) -> Dict:
    """Write ``current`` to ``path``, keeping the existing ``history``."""
    history = []
    if path.exists():
        history = json.loads(path.read_text()).get("history", [])
    payload = dict(current, history=history)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload


def format_capture(suite: Suite, current: Dict) -> str:
    """Human-readable table of a capture."""
    from repro.analysis import format_table

    return format_table(
        ["config", f"median ms/{suite.unit}", "best ms"],
        [
            [key, f"{entry['median_s'] * 1e3:.1f}",
             f"{entry['best_s'] * 1e3:.1f}"]
            for key, entry in current["runs"].items()
        ],
        title=f"{suite.name}: seconds at the reference speed; "
              f"suite wall {current['wall_s']:.1f} s",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark suites of the simulator and "
                    "the numerical runtime."
    )
    parser.add_argument("--suite", choices=(*SUITES, "all"), default="sim")
    parser.add_argument("--quick", action="store_true",
                        help="each suite's smoke subset of configs")
    parser.add_argument("--check", action="store_true",
                        help=f"fail when a median exceeds its snapshot's by "
                             f"more than {BAND * 100:.0f}%% or a wall gate "
                             f"fails")
    parser.add_argument("--write", action="store_true",
                        help=f"re-capture the snapshot from "
                             f"{SNAPSHOT_CAPTURES} captures (history kept)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the fresh captures, keyed by suite")
    args = parser.parse_args(argv)

    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    rounds = [
        {
            name: capture(
                SUITES[name],
                SUITES[name].quick if args.quick else SUITES[name].full,
                SUITES[name].runs,
            )
            for name in names
        }
        for _ in range(SNAPSHOT_CAPTURES if args.write else 1)
    ]
    captures = {
        name: pool([taken[name] for taken in rounds]) for name in names
    }
    if args.out is not None:
        Path(args.out).write_text(
            json.dumps(captures, indent=1, sort_keys=True) + "\n"
        )
    worst = 0
    for name, current in captures.items():
        suite = SUITES[name]
        print(format_capture(suite, current))
        path = suite.snapshot
        if args.write:
            write_snapshot(path, current)
            print(f"snapshot written to {path} ({len(current['runs'])} configs)")
        elif args.check and not path.exists():
            print(f"no snapshot at {path}; run --write first", file=sys.stderr)
            worst = max(worst, 2)
        elif args.check:
            problems = check(suite, current, json.loads(path.read_text()))
            if problems:
                print(f"{name} regression ({len(problems)} problem(s)):",
                      file=sys.stderr)
                for line in problems:
                    print(f"  {line}", file=sys.stderr)
                worst = max(worst, 1)
            else:
                print(f"{name} OK: {len(current['runs'])} config(s) within "
                      f"{BAND:.0%} of {path.name}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
