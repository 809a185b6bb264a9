"""Ablation: how strong is the expert-centric baseline?

Tutel's All-to-All is itself optimized (hierarchical cross-node channels);
the paper's speedups are measured against that *strong* baseline.  This
ablation quantifies the difference on the simulated fabric: a naive flat
All-to-All (one cross-node flow per GPU pair, pinned to the source GPU's
NIC) versus the Tutel-style hierarchical decomposition, and then Janus
against each.
"""

import pytest

from engine_cache import write_report
from repro.analysis import format_table
from repro.cluster import Cluster
from repro.config import moe_gpt
from repro.core import (
    JanusFeatures,
    build_workload,
    engine_for,
)


def run_baselines():
    config = moe_gpt(32)
    cluster = Cluster(4)
    workload = build_workload(config, cluster, imbalance=0.8)
    naive = engine_for(
        "expert-centric", config, cluster, workload=workload,
        features=JanusFeatures(hierarchical_a2a=False),
    ).run_iteration()
    tutel = engine_for(
        "expert-centric", config, cluster, workload=workload,
    ).run_iteration()
    janus = engine_for(
        "data-centric", config, cluster, workload=workload,
    ).run_iteration()
    return naive, tutel, janus


def test_baseline_strength(benchmark):
    naive, tutel, janus = benchmark.pedantic(
        run_baselines, rounds=1, iterations=1
    )

    write_report(
        "ablation_baseline_strength.txt",
        format_table(
            ["System", "iter (ms)", "vs naive EC"],
            [
                ["naive flat All-to-All EC", f"{naive.seconds * 1e3:.1f}", "1.00x"],
                [
                    "hierarchical All-to-All EC (Tutel-like)",
                    f"{tutel.seconds * 1e3:.1f}",
                    f"{naive.seconds / tutel.seconds:.2f}x",
                ],
                [
                    "data-centric Janus",
                    f"{janus.seconds * 1e3:.1f}",
                    f"{naive.seconds / janus.seconds:.2f}x",
                ],
            ],
            title="Baseline strength on MoE-GPT with mild routing "
            "skew (0.8)",
        ),
    )

    # Hierarchical All-to-All beats the naive decomposition (per-GPU NIC
    # hotspots under skew + per-pair message latency)...
    assert tutel.seconds < naive.seconds
    # ...and Janus beats both: the paper's speedups stand against the
    # strong baseline, not a strawman.
    assert janus.seconds < tutel.seconds
    # Traffic volume is identical for the two EC variants (same tokens).
    assert tutel.nic_egress_bytes.sum() == pytest.approx(
        naive.nic_egress_bytes.sum(), rel=1e-6
    )
