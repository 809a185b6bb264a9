"""Ablation: routing imbalance (§3.1, first observation).

The paper observes that expert token assignments are imbalanced and that
All-to-All, being synchronous, is paced by the busiest worker — one reason
expert-centric training is slow.  The data-centric paradigm is immune by
construction: every expert is the same size, so pull traffic stays balanced
no matter how skewed the routing is.

This ablation sweeps Zipf skew over the routing distribution and measures
both engines on MoE-GPT.
"""

import numpy as np
from engine_cache import write_report
from repro.analysis import format_table
from repro.cluster import Cluster
from repro.config import moe_gpt
from repro.core import build_workload, engine_for
from repro.workloads import assignment_imbalance

SKEWS = (0.0, 0.8, 1.4)


def run_sweep():
    config = moe_gpt(32)
    cluster = Cluster(4)
    results = {}
    for skew in SKEWS:
        workload = build_workload(
            config, cluster, imbalance=skew, rng=np.random.default_rng(7)
        )
        block = workload.moe_blocks()[0]
        load_ratio = assignment_imbalance(block.routing.sum(axis=0))
        ec = engine_for(
            "expert-centric", config, cluster, workload=workload
        ).run_iteration()
        dc = engine_for(
            "data-centric", config, cluster, workload=workload
        ).run_iteration()
        results[skew] = (load_ratio, ec, dc)
    return results


def test_imbalance_hurts_expert_centric_more(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for skew, (load_ratio, ec, dc) in results.items():
        rows.append([
            f"{skew:.1f}",
            f"{load_ratio:.2f}",
            f"{ec.seconds * 1e3:.1f}",
            f"{dc.seconds * 1e3:.1f}",
            f"{ec.seconds / dc.seconds:.2f}x",
        ])
    write_report(
        "ablation_imbalance.txt",
        format_table(
            ["Zipf skew", "max/mean load", "EC (ms)", "DC (ms)", "speedup"],
            rows,
            title="Routing-imbalance ablation on MoE-GPT "
            "(§3.1: All-to-All is paced by the busiest worker)",
        ),
    )

    balanced = results[0.0]
    worst = results[max(SKEWS)]
    # Skew concentrates load on hot experts.
    assert worst[0] > 2 * balanced[0]
    # Expert-centric slows down under skew...
    assert worst[1].seconds > balanced[1].seconds * 1.1
    # ...and relatively more than data-centric: the Janus advantage widens.
    ec_degradation = worst[1].seconds / balanced[1].seconds
    dc_degradation = worst[2].seconds / balanced[2].seconds
    assert ec_degradation > dc_degradation
    speedup_balanced = balanced[1].seconds / balanced[2].seconds
    speedup_worst = worst[1].seconds / worst[2].seconds
    assert speedup_worst > speedup_balanced
