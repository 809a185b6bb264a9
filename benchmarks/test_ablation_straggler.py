"""Ablation: stragglers and compute jitter (§3.2 "less synchronization").

The paper argues a key data-centric advantage: All-to-All is synchronous,
so "fast machines have to wait for slow machines", while pull-based expert
movement needs no lockstep.  Two experiments separate the effects:

1. **Constant straggler** — machine 0 permanently slowed.  Both paradigms
   must absorb its longer compute (the iteration ends with a weight-update
   barrier either way), so both inflate by a similar absolute amount; the
   synchronous engine pays at least as much (it stalls at every
   All-to-All, not just at the end).

2. **Per-task compute jitter** — every kernel's duration gets lognormal
   noise.  Here the structural difference shows: the synchronous engine
   pays the *maximum* jitter at every barrier (sum of per-phase maxima),
   while the asynchronous pipeline averages noise out and only the final
   barrier takes a maximum — so expert-centric degrades faster and the
   Janus speedup widens with jitter.
"""

from engine_cache import write_report
from repro.analysis import format_table
from repro.cluster import Cluster
from repro.config import moe_gpt
from repro.core import build_workload, JanusEngine

SPEEDS = (1.0, 0.7, 0.5)
JITTERS = (0.0, 0.2, 0.4)
EC, DC = "expert-centric", "data-centric"


def _engine(cluster, workload, config, paradigm, **kwargs):
    return JanusEngine(
        cluster,
        workload,
        {i: paradigm for i in config.moe_block_indices},
        **kwargs,
    )


def run_experiments():
    config = moe_gpt(32)
    cluster = Cluster(4)
    workload = build_workload(config, cluster)
    straggler = {}
    for speed in SPEEDS:
        for paradigm in (EC, DC):
            straggler[(speed, paradigm)] = _engine(
                cluster, workload, config, paradigm,
                machine_speed={0: speed},
            ).run_iteration()
    jitter = {}
    for sigma in JITTERS:
        for paradigm in (EC, DC):
            jitter[(sigma, paradigm)] = _engine(
                cluster, workload, config, paradigm,
                compute_jitter=sigma, jitter_seed=3,
            ).run_iteration()
    return straggler, jitter


def test_synchronization_sensitivity(benchmark):
    straggler, jitter = benchmark.pedantic(
        run_experiments, rounds=1, iterations=1
    )

    straggler_rows = [
        [
            f"{speed:.1f}",
            f"{straggler[(speed, EC)].seconds * 1e3:.1f}",
            f"{straggler[(speed, DC)].seconds * 1e3:.1f}",
        ]
        for speed in SPEEDS
    ]
    jitter_rows = [
        [
            f"{sigma:.1f}",
            f"{jitter[(sigma, EC)].seconds * 1e3:.1f}",
            f"{jitter[(sigma, DC)].seconds * 1e3:.1f}",
            f"{jitter[(sigma, EC)].seconds / jitter[(sigma, DC)].seconds:.2f}x",
        ]
        for sigma in JITTERS
    ]
    write_report(
        "ablation_straggler.txt",
        format_table(
            ["machine-0 speed", "EC (ms)", "DC (ms)"],
            straggler_rows,
            title="Constant straggler on MoE-GPT (machine 0 slowed)",
        )
        + "\n\n"
        + format_table(
            ["jitter sigma", "EC (ms)", "DC (ms)", "speedup"],
            jitter_rows,
            title="Per-task compute jitter on MoE-GPT (§3.2 async advantage)",
        ),
    )

    # Constant straggler: the synchronous engine's absolute penalty is at
    # least the asynchronous engine's.
    ec_penalty = (
        straggler[(0.5, EC)].seconds
        - straggler[(1.0, EC)].seconds
    )
    dc_penalty = (
        straggler[(0.5, DC)].seconds
        - straggler[(1.0, DC)].seconds
    )
    assert ec_penalty >= dc_penalty * 0.95
    assert ec_penalty > 0 and dc_penalty > 0

    # Jitter: expert-centric degrades relatively faster, so the Janus
    # speedup widens monotonically with sigma.
    speedups = [
        jitter[(sigma, EC)].seconds
        / jitter[(sigma, DC)].seconds
        for sigma in JITTERS
    ]
    assert speedups == sorted(speedups)
    ec_growth = (
        jitter[(0.4, EC)].seconds
        / jitter[(0.0, EC)].seconds
    )
    dc_growth = (
        jitter[(0.4, DC)].seconds
        / jitter[(0.0, DC)].seconds
    )
    assert ec_growth > dc_growth
