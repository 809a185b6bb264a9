"""``repro bench --suite serving``: the request-level serving simulator.

Replays seeded open-loop traces through :mod:`repro.serving` on both
topologies.  Besides the shared wall-clock gate against
``benchmarks/BENCH_serving.json``, the suite gates on:

* the **structural serving win**, a pure simulated-time fact: on the
  skewed-popularity trace the disaggregated prefill/decode topology must
  beat the unified topology's p99 per-output-token latency.  Unified
  workers interleave prefills between decode steps, so a decode token
  occasionally waits behind a whole prompt (head-of-line blocking);
  dedicated decoders with streamed multi-NIC KV transfer and hot-expert
  pinning keep that out of the tail.  This ordering holds on any host —
  a violation means the serving model regressed, not a slow runner;
* completeness: every run finished all offered requests.

The per-request latency digest of the quick pair is pinned exactly by the
``serving`` golden of ``tests/goldens.py``, not here.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .harness import BENCH_DIR, Suite, time_runs, timing

SERVING_SCHEMA = "janus-repro/bench-serving/v1"

# Cluster/model shape shared by every run: the bench-speed MoE-GPT shape
# on four machines — two prefillers + two decoders when disaggregated.
_EXPERTS = 32
_MACHINES = 4

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
    """One timed serving run: a named trace on one topology."""

    trace: str
    topology: str
    requests: int

    @property
    def key(self) -> str:
        return f"{self.trace}/{self.topology}"


SERVING_FULL_CONFIGS: Tuple[ServingBenchConfig, ...] = (
    ServingBenchConfig("skewed", "unified", 50_000),
    ServingBenchConfig("skewed", "disaggregated", 50_000),
    ServingBenchConfig("uniform", "unified", 20_000),
    ServingBenchConfig("uniform", "disaggregated", 20_000),
    ServingBenchConfig("diurnal", "disaggregated", 20_000),
    ServingBenchConfig("bursty", "unified", 20_000),
)

# CI smoke subset: the structural pair on a smaller trace.
SERVING_QUICK_CONFIGS: Tuple[ServingBenchConfig, ...] = (
    ServingBenchConfig("skewed", "unified", 8_000),
    ServingBenchConfig("skewed", "disaggregated", 8_000),
)


def _build_run(spec: ServingBenchConfig):
    from ..cluster import Cluster
    from ..config import moe_gpt
    from ..serving import ServingConfig, TraceSpec, generate_trace

    trace_spec = TraceSpec.parse(
        f"{_TRACES[spec.trace]};requests={spec.requests}"
    )
    return (
        moe_gpt(_EXPERTS),
        Cluster(_MACHINES),
        generate_trace(trace_spec),
        ServingConfig(topology=spec.topology),
    )


def time_serving_config(spec: ServingBenchConfig, runs: int = 1) -> Dict:
    """Time ``runs`` cold serving runs of one config; report the median.

    Each run regenerates the trace and rebuilds the cluster/fabric, so
    the sample includes exactly what ``repro serve`` pays.  The simulated
    facts (latency percentiles, goodput, digest) are bit-identical across
    runs — the final run's summary is reported.
    """
    from ..serving import simulate_serving

    samples, result = time_runs(
        runs, lambda _: simulate_serving(*_build_run(spec))
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


def check_serving_wins(current: Dict) -> List[str]:
    """Structural gate, independent of host speed.

    * disaggregated p99 per-output-token latency beats unified on the
      skewed trace (the Janus-inference disaggregation claim), and
    * every run completed all offered requests.
    """
    problems = []
    runs = current.get("runs", {})
    for key, entry in runs.items():
        if not entry.get("completed_ok", False):
            problems.append(f"{key}: not every offered request completed")
    unified = runs.get("skewed/unified")
    disagg = runs.get("skewed/disaggregated")
    if unified is None or disagg is None:
        return problems + [
            "capture is missing the skewed unified/disaggregated pair"
        ]
    fast = disagg["tpot_p99_ms"]
    slow = unified["tpot_p99_ms"]
    if fast >= slow:
        problems.append(
            f"skewed/disaggregated: p99 TPOT {fast:.3f} ms does not beat "
            f"unified ({slow:.3f} ms)"
        )
    return problems


def _describe(configs: Sequence[ServingBenchConfig], runs: int) -> Dict:
    return {
        "model": "MoE-GPT",
        "experts": _EXPERTS,
        "machines": _MACHINES,
        "traces": {
            spec.trace: f"{_TRACES[spec.trace]};requests={spec.requests}"
            for spec in configs
        },
        "runs": runs,
    }


SUITE = Suite(
    name="serving",
    summary="request-level serving traces on both topologies",
    schema=SERVING_SCHEMA,
    snapshot=BENCH_DIR / "BENCH_serving.json",
    full=SERVING_FULL_CONFIGS,
    quick=SERVING_QUICK_CONFIGS,
    # One run per config: the simulated facts are bit-identical across
    # repeats, and the largest trace replays 50k requests.
    runs=(1, 1),
    unit="trace",
    measure=time_serving_config,
    describe=_describe,
    columns=(
        ("p99 TTFT", lambda entry, _: f"{entry['ttft_p99_ms']:.2f}ms"),
        ("p99 TPOT", lambda entry, _: f"{entry['tpot_p99_ms']:.3f}ms"),
        ("SLO", lambda entry, _: f"{entry['slo_attainment']:.1%}"),
        ("goodput", lambda entry, _: f"{entry['goodput_rps']:.0f}/s"),
        ("events/s", lambda entry, _: f"{entry['events_per_s']:.0f}"),
    ),
    gates=lambda current, snapshot, scale: check_serving_wins(current),
)
