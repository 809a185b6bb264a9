"""The benchmark's four workloads.

``prepare(seed, smoke)`` turns a seed into inputs and returns two
callables: ``run()`` does one timed sample of work on those inputs, and
``summarize(raw)`` turns its raw result into an :class:`Outcome` outside
the timed region.  Only the stable public API of ``repro`` is imported,
and only inside ``prepare``: the orchestrating process never imports
``repro`` or numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Outcome:
    """What one sample produced: simulated outputs, kernel events, and the
    output checks it failed (empty when every check held)."""

    sim: Dict[str, float]
    events: int
    problems: List[str] = field(default_factory=list)


def _training_outcome(raw) -> Outcome:
    """Fold one sample's iteration results into its simulated outputs."""
    results, switches = raw
    count = len(results)
    problems = []
    for index, result in enumerate(results):
        credit = result.features.credit_size
        low = sorted(
            rank for rank, level in result.credit_levels.items()
            if level < credit
        )
        if low:
            problems.append(
                f"iteration {index}: ranks {low} end below credit {credit}"
            )
    sim = {
        "sim_iter_ms": sum(r.seconds for r in results) * 1e3 / count,
        "sim_nic_gb": sum(r.cross_node_gb_per_machine for r in results) / count,
        "sim_a2a_share": sum(r.all_to_all_share for r in results) / count,
        "sim_switches": switches,
    }
    sim = {key: float(value) for key, value in sim.items()}
    return Outcome(sim, sum(r.sim_events for r in results), problems)


def _serving_outcome(result) -> Outcome:
    summary = result.summary()
    sim = {
        f"sim_{key}": float(summary[key])
        for key in ("ttft_p99_ms", "tpot_p99_ms", "goodput_rps", "nic_gb")
    }
    sim["sim_makespan_ms"] = float(summary["makespan_s"]) * 1e3
    incomplete = int((result.complete_s < 0).sum())
    problems = [f"{incomplete} requests never completed"] if incomplete else []
    return Outcome(sim, result.sim_events, problems)


def fig14(seed: int, smoke: bool):
    from repro.cluster import Cluster
    from repro.config import moe_bert
    from repro.core import JanusFeatures, engine_for

    # Balanced routing: this workload takes nothing from the seed.
    engine = engine_for(
        "data-centric", moe_bert(32), Cluster(4),
        features=JanusFeatures(topology_aware=True, prefetch=True),
    )

    def run():
        return [engine.run_iteration()], 0

    return run, _training_outcome


def fleet(seed: int, smoke: bool):
    import numpy as np

    from repro.cluster import Cluster
    from repro.config import moe_gpt
    from repro.core import build_workload, engine_for

    config = moe_gpt(256)
    cluster = Cluster(8 if smoke else 32)
    workload = build_workload(
        config, cluster, imbalance=0.6, rng=np.random.default_rng(seed)
    )
    engine = engine_for("expert-centric", config, cluster, workload=workload)

    def run():
        return [engine.run_iteration()], 0

    return run, _training_outcome


def drift(seed: int, smoke: bool):
    from repro.cluster import Cluster
    from repro.config import moe_gpt
    from repro.control import ControlConfig, Controller, ControlPolicy
    from repro.core import JanusFeatures, engine_for
    from repro.metrics import MetricsRegistry
    from repro.workloads import DriftSpec

    config = moe_gpt(32).scaled(batch_size=64)
    cluster = Cluster(2)
    spec = DriftSpec(kind="flip", skew=1.5, period=2, seed=seed)
    # A 0.1 deviation band makes the controller switch on every seed; at
    # the default 0.25 some seeds never switch, which would make host time
    # bimodal across seeds.
    control = ControlConfig(recover_after_clean=1, deviation=0.1)
    iterations = 2 if smoke else 8

    def make_engine():
        # The controller and the drifted routing live in the engine, so
        # every sample replays the schedule on a fresh one.
        controller = Controller(policy=ControlPolicy(config=control), drift=spec)
        engine = engine_for(
            "auto", config, cluster, threshold=1.5, controller=controller,
            features=JanusFeatures(micro_batches=4), metrics=MetricsRegistry(),
        )
        return engine, controller

    built = [make_engine()]  # set-up builds the first engine

    def run():
        engine, controller = built.pop() if built else make_engine()
        return engine.run(iterations), controller.switch_count

    return run, _training_outcome


def serve(seed: int, smoke: bool):
    from repro.cluster import Cluster
    from repro.config import moe_gpt
    from repro.serving import (
        ServingConfig,
        TraceSpec,
        generate_trace,
        simulate_serving,
    )

    spec = TraceSpec(
        kind="poisson", rate=3000.0, skew=1.2, prompt_mean=128.0,
        output_mean=32.0, requests=500 if smoke else 8000, seed=seed,
    )
    config, cluster = moe_gpt(32), Cluster(4)
    trace = generate_trace(spec)
    serving = ServingConfig(topology="disaggregated")

    def run():
        return simulate_serving(config, cluster, trace, serving)

    return run, _serving_outcome


# Name -> set-up function; the "why" of each lives in BENCHMARK.json.
WORKLOADS = {
    "fig14-bert-dc": fig14,
    "fleet32-gpt-ec-skew": fleet,
    "drift-gpt-adaptive": drift,
    "serve-skewed-disagg": serve,
}
