"""``repro bench --suite sim``: wall-clock time of the Fig. 14 configs.

Each config is one (model, paradigm) pair on four machines.  A sample is
one :meth:`JanusEngine.run_iteration` on a fresh engine (construction is
untimed), reported with kernel events per host-second.  The committed
snapshot ``benchmarks/BENCH_speed.json`` carries the project's
wall-clock perf trajectory in its ``history`` list.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence, Tuple

from .harness import BENCH_DIR, Suite, time_iterations

SCHEMA = "janus-repro/bench-speed/v1"


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


def time_config(spec: BenchConfig, runs: int = 3) -> Dict:
    """Time ``runs`` cold iterations of one config; report the median."""
    from ..cluster import Cluster
    from ..config import TABLE1_MODELS
    from ..core import JanusFeatures, build_workload, engine_for

    config = TABLE1_MODELS[spec.model](spec.experts)
    cluster = Cluster(spec.machines)
    workload = build_workload(config, cluster)
    features = JanusFeatures(topology_aware=True, prefetch=True)
    return time_iterations(runs, lambda: engine_for(
        spec.mode, config, cluster, workload=workload, features=features
    ))


def _describe(configs: Sequence[BenchConfig], runs: int) -> Dict:
    return {
        "experts": configs[0].experts if configs else 0,
        "machines": configs[0].machines if configs else 0,
        "features": "full",
        "runs": runs,
    }


SUITE = Suite(
    name="sim",
    summary="Fig. 14 simulator configs",
    schema=SCHEMA,
    snapshot=BENCH_DIR / "BENCH_speed.json",
    full=FULL_CONFIGS,
    quick=QUICK_CONFIGS,
    # One sample of a sub-second iteration is scheduler noise; three
    # give the quick CI gate a median.
    runs=(3, 3),
    unit="iter",
    measure=time_config,
    describe=_describe,
    columns=(
        ("best", lambda entry, _: f"{entry['best_s'] * 1e3:.1f}"),
        ("events", lambda entry, _: f"{entry['events']:d}"),
        ("events/s", lambda entry, _: f"{entry['events_per_s']:.0f}"),
    ),
)
