"""One registry for every frozen-output fixture.

A golden is one :class:`Golden` record: a name, a fixture under
``tests/fixtures/``, its cases, ``run(case)`` and the fields it pins.
Every fixture has one layout, ``{"about": ..., "cases": {case: value}}``,
and every case replays *exactly*: floats are stored either as ``repr``
strings or as JSON numbers, both of which round-trip bit for bit.
:func:`bind` turns goldens into the one parametrized test (a coverage
check per golden, then an exact replay per case); ``tests/test_goldens.py``
binds it and checks the harness itself.

The goldens:

* ``fault`` -- faulted pull-paradigm runs, retry for retry;
* ``taskgraph`` -- every engine mode's task graph and seeded trace;
* ``legacy-table`` -- the retired process scheduler's outputs;
* ``block-maps`` -- the static per-block selectors' maps;
* ``fig14-metrics`` -- the Fig. 14 configs with metrics attached;
* ``serving`` -- the skewed 8000-request serving trace on both
  topologies, a 64-request trace on the small cluster, and instrumented
  small runs that reach every branch of the serving step code;
* ``control`` -- multi-iteration runs under the between-iteration
  controller: load switches, replicas, fault degradation and recovery,
  and chunk retunes.

Regenerate (only when an output is *meant* to change), naming each golden
to rewrite: ``PYTHONPATH=src:. python -m tests.goldens NAME...``.  A
golden that pins only some fields of a case (the legacy table keeps each
row's inputs next to its outputs) rewrites only those fields.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.config import TABLE1_MODELS, moe_gpt, pr_moe_transformer_xl
from repro.control import ControlConfig, Controller, ControlPolicy
from repro.core import (
    JanusEngine,
    JanusFeatures,
    auto_schedule_map,
    build_workload,
    engine_for,
    strategy_map,
)
from repro.faults import (
    DegradationPolicy,
    FaultPlan,
    PullFailedError,
    ResilienceConfig,
)
from repro.metrics import MetricsRegistry, busy_kpis
from repro.serving import (
    ServingConfig,
    TraceSpec,
    generate_trace,
    simulate_serving,
)
from repro.trace import TraceRecorder
from repro.workloads import DriftSpec

from tests.conftest import fault_arm_controller, small_cluster, small_config

FIXTURES = Path(__file__).parent / "fixtures"


@dataclass(frozen=True)
class Golden:
    """One frozen-output fixture and the code that replays it."""

    name: str
    fixture: Path
    cases: Callable[[], Sequence[str]]
    run: Callable[[str], object]
    # Fields of a case's value that are compared and rewritten; None pins
    # the whole value.
    pinned: Optional[Tuple[str, ...]] = None

    def frozen(self) -> Dict[str, object]:
        return _load(self.fixture)["cases"]

    def pin(self, value):
        if self.pinned is None:
            return value
        return {field: value[field] for field in self.pinned}

    def replay(self, case: str):
        """``(replayed, frozen)`` pinned values of one case."""
        return self.pin(self.run(case)), self.pin(self.frozen()[case])

    def write(self) -> None:
        document = dict(_load(self.fixture))
        old = document["cases"]
        document["cases"] = {
            case: (
                self.run(case) if self.pinned is None
                else {**old.get(case, {}), **self.run(case)}
            )
            for case in self.cases()
        }
        self.fixture.write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n"
        )
        _load.cache_clear()


@functools.lru_cache(maxsize=None)
def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _plain(value):
    """A kernel-stable JSON value: floats by ``repr`` of the plain float
    (the pure-Python cores hand back numpy scalars), numpy scalars
    unwrapped."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return str(value)


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def _trace_sha(trace, events_key: str) -> str:
    """sha256 of a run's spans and marks: kind, ``repr`` times, worker,
    block, detail / sorted mark fields."""
    spans = [
        [span.kind, _plain(span.start), _plain(span.end), span.worker,
         span.block, span.detail]
        for span in trace.spans
    ]
    events = [
        sorted((key, _plain(value)) for key, value in event.items())
        for event in trace.events
    ]
    return _sha({"spans": spans, events_key: events})


def _run_facts(result) -> dict:
    return {
        "seconds": repr(float(result.seconds)),
        "egress": [repr(float(b)) for b in result.nic_egress_bytes],
        "events_processed": int(result.sim_events),
    }


def _fault_stats(stats) -> Optional[dict]:
    if stats is None:
        return None
    return {
        key: (
            {str(k): v for k, v in sorted(value.items())}
            if isinstance(value, dict) else value
        )
        for key, value in asdict(stats).items()
    }


# -- fault: faulted runs, retry for retry ----------------------------------
#
# For each pull-paradigm mode (data-centric, unified, and data-centric
# without the hierarchical cache, whose workers pull remote experts
# directly) x fault plan (message loss on each lossable kind, including
# total loss of requests and of gradient pushes; a server outage; a NIC
# degradation; a compute slowdown; one mixed plan): the run's facts, every
# FaultStats field and the trace sha.  Extra cases rerun some plans under
# non-default ResilienceConfig budgets; the two ``on_failure="raise"``
# cases pin the surfaced PullFailedError.  This table is what holds the
# timeout / retry / backoff / deadline paths to exact times.

FAULT_MODES = {
    "data-centric": ("data-centric", {}),
    "unified": ("unified", {}),
    "flat": ("data-centric", {"hierarchical": False}),
}
FAULT_PLANS = {
    "loss-pull-request": "seed=3;loss=pull-request*0.3",
    "loss-grad-push": "seed=3;loss=grad-push*0.3",
    "loss-pull-direct": "seed=3;loss=pull-direct*0.3",
    "requests-lost": "seed=1;loss=pull-request+pull-direct*1.0",
    "pushes-lost": "seed=1;loss=grad-push*1.0",
    "outage": "outage=1@0:0.01",
    "link": "link=nic*0.05@0.0:0.05",
    "slow": "slow=0*0.5@0:0.02",
    "mixed": (
        "seed=5;loss=pull-request+grad-push+pull-direct*0.2;"
        "outage=0@0.004:0.008;link=nic.1*0.5@0.01:0.03;slow=1*0.7@0.005:0.02"
    ),
}
# Non-default budgets: surface the failure, a block deadline tight enough
# to cut fetch chains short, and no block deadline at all.
FAULT_BUDGETS = {
    "raise": ResilienceConfig(on_failure="raise"),
    "tight-deadline": ResilienceConfig(block_deadline=2e-3),
    "no-deadline": ResilienceConfig(block_deadline=None),
}
FAULT_CASES = [f"{m}/{p}" for m in FAULT_MODES for p in FAULT_PLANS] + [
    "data-centric/requests-lost/raise",
    "flat/requests-lost/raise",
    "data-centric/loss-pull-request/tight-deadline",
    "data-centric/link/tight-deadline",
    "data-centric/loss-pull-request/no-deadline",
]


def _fault_run(case: str):
    mode_name, plan_name, *budget = case.split("/")
    mode, features = FAULT_MODES[mode_name]
    config = moe_gpt(16)
    cluster = Cluster(2)
    engine = engine_for(
        mode, config, cluster, workload=build_workload(config, cluster),
        features=JanusFeatures(**features),
        fault_plan=FaultPlan.parse(FAULT_PLANS[plan_name]),
        resilience=FAULT_BUDGETS[budget[0]] if budget else None,
    )
    return engine.run_iteration()


def fault_digest(case: str) -> dict:
    if case.endswith("/raise"):
        with pytest.raises(PullFailedError) as excinfo:
            _fault_run(case)
        return {
            "error": str(excinfo.value),
            "attempts": excinfo.value.attempts,
        }
    result = _fault_run(case)
    return {
        **_run_facts(result),
        "fault_stats": _fault_stats(result.fault_stats),
        "trace": _trace_sha(result.trace, "marks"),
    }


# -- taskgraph: every engine mode's graph and seeded trace -----------------
#
# For each engine mode (every registered strategy, ``unified``, ``auto``
# and a mixed per-block map) x feature variant x {training, forward-only}:
# the sha of ``build_graph().to_json()`` (task and lane names, waits and
# signals, claims, details), the trace sha and the run's facts.  This pins
# *what* the graph is called, which the Chrome trace, ``repro graph``
# exports and the ``:mbK`` stagger parsing all read.

# Blocks 1/3/7 have R > 1 on this cluster and block 5 has R < 1, so
# ``unified`` and ``auto`` build a data-centric/expert-centric mix.
GRAPH_CONFIG = small_config(
    num_blocks=8, experts_per_block={1: 4, 3: 4, 5: 16, 7: 4},
)
GRAPH_MIXED = {
    1: "microbatch-ec", 3: "data-centric", 5: "expert-centric",
    7: "pipelined-ec",
}
GRAPH_MODES = (
    "expert-centric", "data-centric", "pipelined-ec", "microbatch-ec",
    "unified", "auto", "mixed",
)
GRAPH_VARIANTS = {
    "default": {},
    "single": {"micro_batches": 1, "ec_pipeline_chunks": 1},
    "three": {"micro_batches": 3, "ec_pipeline_chunks": 3},
    "chain": {"a2a_stagger": "chain"},
    "serial": {"grad_allreduce": "serial"},
    "overlap": {"grad_allreduce": "overlap", "micro_batches": 3},
    "jitter": {},
}
GRAPH_CASES = [
    f"{mode}/{variant}/{phase}"
    for mode in GRAPH_MODES
    for variant in GRAPH_VARIANTS
    for phase in ("train", "fwd")
]


def _graph_engine(mode: str, variant: str) -> JanusEngine:
    cluster = small_cluster()
    workload = build_workload(
        GRAPH_CONFIG, cluster, imbalance=0.3, rng=np.random.default_rng(11),
    )
    features = JanusFeatures(**GRAPH_VARIANTS[variant])
    if mode == "mixed":
        strategies = GRAPH_MIXED
    else:
        base = engine_for(
            mode, GRAPH_CONFIG, cluster, workload=workload, features=features,
        )
        strategies, features = base.block_strategies, base.features
    return JanusEngine(
        cluster, workload, strategies, features=features,
        compute_jitter=0.1 if variant == "jitter" else 0.0, jitter_seed=5,
    )


def graph_digest(case: str) -> dict:
    mode, variant, phase = case.split("/")
    forward_only = phase == "fwd"
    graph = _graph_engine(mode, variant).build_graph(forward_only=forward_only)
    result = _graph_engine(mode, variant).run_iteration(
        forward_only=forward_only
    )
    return {
        "graph": _sha(graph.to_json()),
        "trace": _trace_sha(result.trace, "events"),
        **_run_facts(result),
    }


# -- legacy-table: the retired process scheduler ---------------------------
#
# Each case is one seeded iteration of ``small_config`` with MoE blocks
# 1, 3, ... under the row's strategies; the row keeps its inputs next to
# the outputs it pins.  The task graph adds structure, not events.

LEGACY_FIXTURE = FIXTURES / "legacy_scheduler_table.json"


def legacy_rows() -> Dict[str, dict]:
    return _load(LEGACY_FIXTURE)["cases"]


def legacy_replay(case: str) -> dict:
    row = legacy_rows()[case]
    strategies = row["strategies"]
    experts = row["machines"] * 2 * row["experts_per_worker"]
    moe = [2 * i + 1 for i in range(len(strategies))]
    config = small_config(
        batch_size=row["batch"], num_blocks=2 * len(strategies),
        experts_per_block={block: experts for block in moe},
    )
    cluster = small_cluster(row["machines"], 2)
    workload = build_workload(
        config, cluster, imbalance=row["imbalance"],
        rng=np.random.default_rng(row["seed"]),
    )
    features = (
        JanusFeatures() if row["micro_batches"] is None
        else JanusFeatures(micro_batches=row["micro_batches"])
    )
    registry = MetricsRegistry()
    engine = JanusEngine(
        cluster, workload, dict(zip(moe, strategies)), features=features,
        metrics=registry,
    )
    result = engine.run_iteration(forward_only=row["forward_only"])
    return {
        "seconds": result.seconds,
        "egress": [float(b) for b in result.nic_egress_bytes],
        "events_processed": registry.gauge(
            "sim.events_processed", iteration=0
        ),
        "processes_started": registry.gauge(
            "sim.processes_started", iteration=0
        ),
    }


# -- block-maps: the static per-block selectors ----------------------------
#
# The maps of strategy_map (Eq. 1 against a threshold) and
# auto_schedule_map (Eq. 1 plus the micro-batch profitability test on
# low-R blocks) over: every Table 1 model at 8-1024 experts on 1-128
# machines of 8 GPUs; PR-MoE-Transformer-xl at scale 1 and 2 on 1-128
# machines; the ``analysis.sweep`` R grid (B in 8..512, S in 64..4096) for
# every Table 1 model at 32 experts on 2 and 4 machines -- each at
# threshold 1 and 1e9.  A case is [strategy_map, auto at 2, 4 and 8
# micro-batches]; a map is one letter per MoE block in block order, and a
# selector that rejects the shape is recorded as ``ValueError``.

MAP_CODES = {"expert-centric": "E", "data-centric": "D", "microbatch-ec": "M"}
MAP_MICRO_BATCHES = (2, 4, 8)


@functools.lru_cache(maxsize=None)
def map_shapes() -> Dict[str, tuple]:
    """Case -> (config, machines, threshold)."""
    shapes = []
    for name, factory in TABLE1_MODELS.items():
        for experts in (2 ** p for p in range(3, 11)):
            config = factory(experts)
            for machines in (2 ** p for p in range(8)):
                shapes.append((f"{name}/{experts}e/{machines}m", config,
                               machines))
    for scale in (1, 2):
        config = pr_moe_transformer_xl(scale)
        for machines in (2 ** p for p in range(8)):
            shapes.append((f"PR-MoE-x{scale}/{machines}m", config, machines))
    for name, factory in TABLE1_MODELS.items():
        for batch in (8, 32, 128, 512):
            for seq in (64, 256, 1024, 4096):
                config = factory(32).scaled(batch_size=batch, seq_len=seq)
                for machines in (2, 4):
                    shapes.append((f"{name}/B{batch}/S{seq}/{machines}m",
                                   config, machines))
    return {
        f"{key}/t{threshold:g}": (config, machines, threshold)
        for key, config, machines in shapes
        for threshold in (1.0, 1e9)
    }


def _encode(config, select) -> str:
    try:
        mapping = select()
    except ValueError:
        return "ValueError"
    blocks = list(config.moe_block_indices)
    assert sorted(mapping) == sorted(blocks)
    return "".join(MAP_CODES[mapping[index]] for index in blocks)


def block_maps(case: str) -> list:
    config, machines, threshold = map_shapes()[case]
    cluster = Cluster(machines)
    return [
        _encode(config, lambda: strategy_map(
            config, cluster, threshold=threshold,
        )),
        *(
            _encode(config, lambda: auto_schedule_map(
                config, cluster, threshold=threshold, micro_batches=micro,
            ))
            for micro in MAP_MICRO_BATCHES
        ),
    ]


# -- fig14-metrics: the Table 1 / Fig. 14 comparison points ----------------
#
# 32 experts on 4 machines, full features, each paradigm with a
# MetricsRegistry attached: makespan, overlap efficiency, All-to-All
# share, bytes moved and the scheduler counter totals (0 when a paradigm
# never touches the subsystem).

FIG14_MODES = ("expert-centric", "data-centric", "pipelined-ec", "unified")
FIG14_COUNTERS = (
    "pull.issued", "fetch.issued", "cache.requests", "cache.hits",
    "cache.misses", "link.bytes",
)


def fig14_metrics(case: str) -> dict:
    model, mode = case.split("/", 1)
    config = TABLE1_MODELS[model](32)
    cluster = Cluster(4)
    registry = MetricsRegistry()
    result = engine_for(
        mode, config, cluster, workload=build_workload(config, cluster),
        features=JanusFeatures(), metrics=registry,
    ).run_iteration()
    return {
        "makespan_seconds": result.seconds,
        "overlap_efficiency": busy_kpis(
            result.trace, iteration=result.iteration
        )[2],
        "all_to_all_share": result.all_to_all_share,
        "egress_bytes_total": float(result.nic_egress_bytes.sum()),
        **{name: registry.total(name) for name in FIG14_COUNTERS},
    }


# -- serving: request-level serving on both topologies --------------------
#
# * ``skewed/<topology>`` -- the quick pair of the serving suite of
#   ``benchmarks/wall.py`` (``skewed/<topology>/8000``), which is also the
#   serve-skewed-disagg benchmark shape: MoE-GPT,
#   32 experts, 4 machines, Poisson 3000/s, Zipf-1.2 popularity, 8000
#   requests, seed 7;
# * ``small/<topology>`` -- 64 requests on ``small_config`` /
#   ``small_cluster`` (max batch 8, prefill batch 2): the serving cost
#   model's identity, replayed as ``TestGolden::test_latencies_pinned`` in
#   ``tests/test_serving_sim.py``;
# * instrumented runs of the small trace's requests arriving 100x faster
#   (so batches fill to their caps), each with a MetricsRegistry and a
#   TraceRecorder attached: ``small/disaggregated/data-centric`` (four
#   machines, so both pools have peers, and decode steps pull expert
#   parameters: the reversed direction of ``_wire``),
#   ``small/unified/tiny-batches`` (max batch 2, prefill batch 1) and
#   ``small/disaggregated/all-pinned`` (four machines, every expert pinned
#   on the decoders).
#
# Per case: the per-request latency digest, the summary percentiles, the
# makespan, the kernel's event count, per-NIC egress, pinned and missed
# decode tokens and the per-phase paradigm counts; the instrumented cases
# add the sha of the metrics dump and the span sha.

SERVING_TRACE = (
    "poisson;rate=3000;seed=7;skew=1.2;prompt_mean=128;output_mean=32;"
    "requests=8000"
)
SERVING_SMALL_TRACE = (
    "poisson;rate=200;requests=64;seed=5;prompt_mean=16;output_mean=8;"
    "skew=1.0"
)
SERVING_LOADED_TRACE = SERVING_SMALL_TRACE.replace("rate=200", "rate=20000")
SERVING_PERCENTILES = (
    "ttft_p50_ms", "ttft_p99_ms", "tpot_p50_ms", "tpot_p99_ms", "e2e_p99_ms",
)
SERVING_SMALL = dict(max_batch=8, prefill_batch=2)
# Instrumented case -> (machines, ServingConfig knobs over SERVING_SMALL).
SERVING_INSTRUMENTED = {
    "small/disaggregated/data-centric": (
        4, dict(topology="disaggregated", decode_paradigm="data-centric"),
    ),
    "small/unified/tiny-batches": (
        2, dict(topology="unified", max_batch=2, prefill_batch=1),
    ),
    "small/disaggregated/all-pinned": (
        4, dict(topology="disaggregated", pin_fraction=1.0),
    ),
}
SERVING_CASES = (
    "skewed/unified", "skewed/disaggregated",
    "small/unified", "small/disaggregated",
    *SERVING_INSTRUMENTED,
)


def serving_run(case: str) -> dict:
    registry = recorder = None
    if case.startswith("skewed/"):
        config, cluster = moe_gpt(32), Cluster(4)
        trace = generate_trace(TraceSpec.parse(SERVING_TRACE))
        serving = ServingConfig(topology=case.split("/")[1])
    else:
        config, spec = small_config(), SERVING_SMALL_TRACE
        machines, knobs = 2, dict(topology=case.split("/")[1])
        if case in SERVING_INSTRUMENTED:
            spec = SERVING_LOADED_TRACE
            machines, knobs = SERVING_INSTRUMENTED[case]
            registry, recorder = MetricsRegistry(), TraceRecorder()
        trace = generate_trace(TraceSpec.parse(spec))
        cluster = small_cluster(machines)
        serving = ServingConfig(**{**SERVING_SMALL, **knobs})
    result = simulate_serving(
        config, cluster, trace, serving, metrics=registry, recorder=recorder,
    )
    summary = result.summary()
    facts = {
        "digest": result.digest(),
        **{field: summary[field] for field in SERVING_PERCENTILES},
        "makespan_s": summary["makespan_s"],
        "slo_attainment": summary["slo_attainment"],
        "sim_events": int(result.sim_events),
        "egress": [repr(float(b)) for b in result.nic_egress_bytes],
        "pinned_tokens": int(result.pinned_tokens),
        "missed_tokens": int(result.missed_tokens),
        "paradigms": summary["paradigms"],
    }
    if registry is not None:
        facts["metrics"] = _sha(registry.as_dict())
        facts["trace"] = _trace_sha(recorder, "marks")
    return facts


# -- control: runs under the between-iteration controller -----------------
#
# Each case runs several iterations with a controller and a MetricsRegistry
# attached and one TraceRecorder shared by every iteration:
#
# * ``flip-adaptive`` -- the drift-gpt-adaptive benchmark shape (flip
#   drift, ``auto`` at threshold 1.5, a 0.1 deadband): load switches and
#   recoveries;
# * ``rotate-replicas`` -- data-centric under rotate drift: the hot
#   expert moves each iteration, so replicas are placed and evicted;
# * ``fault-one-way`` -- total pull-request loss under the fault arm
#   alone (no recovery): the degraded blocks stay expert-centric;
# * ``fault-drift-recovery`` -- the chaos-benchmark shape: heavy loss on
#   a drifting workload, the plan cleared after two iterations, and the
#   block's probation-based return after a clean streak of two;
# * ``chunk-tuning`` -- pipelined-ec under flip drift with the chunk
#   tuner re-picking chunk counts before every iteration.
#
# Per iteration: the run's facts, its strategies and FaultStats.  Per
# case: every decision (switches, causes, replicas placed and evicted,
# the replica map), the sha of the metrics dump and the trace sha with
# the control marks.

CONTROL_CASES = (
    "flip-adaptive", "rotate-replicas", "fault-one-way",
    "fault-drift-recovery", "chunk-tuning",
)


def _control_engine(case: str, registry, trace):
    """``(engine, controller, iterations, clear_faults_after)``."""
    common = dict(metrics=registry, trace=trace)
    if case == "flip-adaptive":
        controller = Controller(
            policy=ControlPolicy(config=ControlConfig(
                recover_after_clean=1, deviation=0.1,
            )),
            drift=DriftSpec(kind="flip", skew=1.5, period=2, seed=7),
        )
        engine = engine_for(
            "auto", moe_gpt(32).scaled(batch_size=64), Cluster(2),
            threshold=1.5, features=JanusFeatures(micro_batches=4),
            controller=controller, **common,
        )
        return engine, controller, 4, None
    if case == "rotate-replicas":
        controller = Controller(
            policy=ControlPolicy(),
            drift=DriftSpec(kind="rotate", skew=2.0, period=1, seed=5),
        )
        engine = engine_for(
            "data-centric", moe_gpt(16), Cluster(2), controller=controller,
            **common,
        )
        return engine, controller, 4, None
    if case == "fault-one-way":
        controller = fault_arm_controller(DegradationPolicy())
        engine = engine_for(
            "unified", moe_gpt(16), Cluster(2),
            fault_plan=FaultPlan.parse("seed=2;loss=pull-request*1.0"),
            controller=controller, **common,
        )
        return engine, controller, 2, None
    if case == "fault-drift-recovery":
        controller = Controller(
            policy=ControlPolicy(
                config=ControlConfig(adapt_load=False, adapt_replicas=False),
                degradation=DegradationPolicy(recover_after_clean=2),
            ),
            drift=DriftSpec(kind="flip", skew=1.2, period=2, seed=7),
        )
        engine = engine_for(
            "data-centric", moe_gpt(16), Cluster(2),
            fault_plan=FaultPlan.parse("seed=7;loss=pull-request*0.5"),
            resilience=ResilienceConfig(), controller=controller, **common,
        )
        return engine, controller, 5, 2
    assert case == "chunk-tuning"
    controller = Controller(
        policy=ControlPolicy(),
        drift=DriftSpec(kind="flip", skew=1.5, period=1, seed=3),
    )
    engine = engine_for(
        "pipelined-ec", moe_gpt(16), Cluster(2),
        features=JanusFeatures(chunk_autotune=True), controller=controller,
        **common,
    )
    return engine, controller, 3, None


def _decision(decision) -> dict:
    return {
        "strategies": {str(b): s for b, s in sorted(decision.strategies.items())},
        "causes": {str(b): c for b, c in sorted(decision.causes.items())},
        "replicate": [list(entry) for entry in decision.replicate],
        "evict": [list(entry) for entry in decision.evict],
        "replicas": {
            str(block): {
                str(expert): list(machines)
                for expert, machines in sorted(experts.items())
            }
            for block, experts in sorted(decision.replicas.items())
        },
    }


def control_run(case: str) -> dict:
    registry = MetricsRegistry()
    trace = TraceRecorder()
    engine, controller, iterations, clear_after = _control_engine(
        case, registry, trace
    )
    results = []
    for iteration in range(iterations):
        if iteration == clear_after:
            engine.fault_plan = None
        results.extend(engine.run(1))
    return {
        "iterations": [
            {
                **_run_facts(result),
                "strategies": {
                    str(b): s for b, s in sorted(result.strategies.items())
                },
                "fault_stats": _fault_stats(result.fault_stats),
            }
            for result in results
        ],
        "decisions": [_decision(d) for d in controller.decisions],
        "metrics": _sha(registry.as_dict()),
        "trace": _trace_sha(trace, "marks"),
    }


GOLDENS: Dict[str, Golden] = {
    golden.name: golden
    for golden in (
        Golden("fault", FIXTURES / "fault_digests.json",
               lambda: FAULT_CASES, fault_digest),
        Golden("taskgraph", FIXTURES / "taskgraph_digests.json",
               lambda: GRAPH_CASES, graph_digest),
        Golden("legacy-table", LEGACY_FIXTURE,
               lambda: list(legacy_rows()), legacy_replay,
               pinned=("seconds", "egress", "events_processed",
                       "processes_started")),
        Golden("block-maps", FIXTURES / "block_maps.json",
               lambda: list(map_shapes()), block_maps),
        Golden("fig14-metrics", FIXTURES / "fig14_metrics.json",
               lambda: [f"{model}/{mode}" for model in sorted(TABLE1_MODELS)
                        for mode in FIG14_MODES],
               fig14_metrics),
        Golden("serving", FIXTURES / "serving.json",
               lambda: list(SERVING_CASES), serving_run),
        Golden("control", FIXTURES / "control.json",
               lambda: list(CONTROL_CASES), control_run),
    )
}


def mismatches(golden: Golden, cases: Optional[Sequence[str]] = None):
    """The cases (default: all) whose replay differs from the fixture."""
    failing = []
    for case in golden.cases() if cases is None else cases:
        replayed, frozen = golden.replay(case)
        if replayed != frozen:
            failing.append(case)
    return failing


def bind(*names: str, cases: Optional[Dict[str, str]] = None):
    """The one golden test over ``names``: a coverage check of every
    golden, then an exact replay per case.  Assign the pair to
    ``test_fixture_covers_every_case, test_case_replays_the_frozen_digest``
    in a test module.  Case ids are ``name/case``, or the bare case when
    one golden is bound.  ``cases`` (one golden only) maps test ids to
    the cases to replay, so a test that moved into the registry keeps its
    ids (inside a test class, wrap the replay in ``staticmethod``)."""
    goldens = [GOLDENS[name] for name in names]
    single = len(goldens) == 1

    def covers():
        for golden in goldens:
            assert sorted(golden.frozen()) == sorted(golden.cases()), (
                golden.name
            )

    if cases is not None:
        (golden,) = goldens
        params = [
            pytest.param(golden, case, id=test_id)
            for test_id, case in cases.items()
        ]
    else:
        params = [
            pytest.param(golden, case,
                         id=case if single else f"{golden.name}/{case}")
            for golden in goldens
            for case in golden.cases()
        ]

    @pytest.mark.parametrize("golden,case", params)
    def replays(golden, case):
        replayed, frozen = golden.replay(case)
        assert replayed == frozen

    return covers, replays


def main(argv: Sequence[str]) -> int:
    unknown = sorted(set(argv) - set(GOLDENS))
    if not argv or unknown:
        print(
            "usage: python -m tests.goldens NAME...  (rewrites each named "
            f"golden's fixture; names: {', '.join(GOLDENS)})",
            file=sys.stderr,
        )
        return 2
    for name in argv:
        golden = GOLDENS[name]
        golden.write()
        print(f"{name}: {len(golden.cases())} cases -> {golden.fixture}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
