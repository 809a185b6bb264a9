"""Pipelined expert-centric (chunked All-to-All) benchmark.

The ``pipelined-ec`` strategy splits every dispatch/combine All-to-All
into K token chunks so expert compute on chunk i overlaps the transfer of
chunk i+1 (the Parm/FlowMoE schedule).  On low-R blocks (R < 1, where
data-centric loses, Eq. 1) this recovers part of the communication time
that plain expert-centric serializes, at the price of K kernel launches
per resident expert.

The benchmark model mixes one high-R block (E=1, R=8.0 — data-centric
territory) with one low-R block (E=16, R=0.5 — expert-centric territory),
so the expected ordering is:

    unified(low_r=pipelined-ec) < unified < pipelined-ec < expert-centric

with pure data-centric worst (it pays the full expert traffic on the
low-R block).  The chunk-count sweep shows the overlap-vs-overhead
tradeoff: K=1 degenerates to plain EC, moderate K wins, large K drowns in
kernel-launch overhead.
"""

import functools

import numpy as np

from engine_cache import write_report
from repro.analysis import format_table
from repro.cluster import Cluster
from repro.config import ModelConfig
from repro.core import (
    JanusFeatures,
    build_workload,
    engine_for,
    gain_ratio,
)

CHUNK_SWEEP = (1, 2, 4, 8, 16)


def mixed_r_config() -> ModelConfig:
    return ModelConfig(
        name="mixedR",
        batch_size=256,
        seq_len=64,
        top_k=2,
        hidden_dim=512,
        num_blocks=8,
        experts_per_block={2: 16, 5: 256},
        num_heads=8,
    )


@functools.lru_cache(maxsize=None)
def _setup():
    config = mixed_r_config()
    cluster = Cluster(2)
    return config, cluster, build_workload(config, cluster)


@functools.lru_cache(maxsize=None)
def run_mode(mode: str, chunks: int = 4):
    config, cluster, workload = _setup()
    kwargs = dict(
        workload=workload,
        features=JanusFeatures(ec_pipeline_chunks=chunks),
        check_memory=False,
    )
    if mode == "unified+pec":
        engine = engine_for(
            "unified", config, cluster, low_r_strategy="pipelined-ec",
            **kwargs,
        )
    else:
        engine = engine_for(mode, config, cluster, **kwargs)
    return engine.run_iteration()


def block_ratios():
    config, cluster, _ = _setup()
    world = cluster.world_size
    return {
        index: gain_ratio(
            config.batch_size, config.seq_len, config.top_k,
            cluster.num_machines, config.hidden_dim,
            config.experts_per_worker(index, world),
        )
        for index in config.moe_block_indices
    }


def run_all_modes():
    modes = (
        "expert-centric", "pipelined-ec", "data-centric", "unified",
        "unified+pec",
    )
    return {mode: run_mode(mode) for mode in modes}


def test_pipelined_ec_between_ec_and_unified(benchmark):
    results = benchmark.pedantic(run_all_modes, rounds=1, iterations=1)
    ratios = block_ratios()

    seconds = {mode: result.seconds for mode, result in results.items()}
    baseline = seconds["expert-centric"]
    rows = [
        [mode, f"{s * 1e3:.2f}", f"{baseline / s:.2f}x"]
        for mode, s in sorted(seconds.items(), key=lambda kv: -kv[1])
    ]
    ratio_text = ", ".join(
        f"block {index}: R={ratio:.2f}" for index, ratio in ratios.items()
    )
    write_report(
        "pipelined_ec.txt",
        format_table(
            ["Mode", "Iter (ms)", "vs expert-centric"],
            rows,
            title="Pipelined expert-centric (chunked All-to-All, K=4) on "
            f"the mixed-R model ({ratio_text})",
        ),
    )

    # The model has a genuinely low-R block (the pipelined-ec target).
    assert min(ratios.values()) < 1.0
    assert max(ratios.values()) > 1.0

    # Acceptance ordering: pipelined-ec strictly between plain
    # expert-centric and the unified engine's best.
    unified_best = min(seconds["unified"], seconds["unified+pec"])
    assert unified_best < seconds["pipelined-ec"] < seconds["expert-centric"]

    # The N-way selector (pipelined-ec on the low-R side) beats the
    # binary EC/DC unified engine.
    assert seconds["unified+pec"] < seconds["unified"]

    # Pure data-centric pays the expert traffic of the low-R block.
    assert seconds["data-centric"] > seconds["expert-centric"]

    # Chunking must not change traffic volume (up to K partial-sum
    # rounding in the chunked byte counts).
    np.testing.assert_allclose(
        results["pipelined-ec"].nic_egress_bytes,
        results["expert-centric"].nic_egress_bytes,
        rtol=1e-12,
    )


def test_pipelined_ec_chunk_sweep(benchmark):
    def sweep():
        return {
            chunks: run_mode("pipelined-ec", chunks=chunks)
            for chunks in CHUNK_SWEEP
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ec = run_mode("expert-centric").seconds

    rows = [
        [chunks, f"{result.seconds * 1e3:.2f}", f"{ec / result.seconds:.2f}x"]
        for chunks, result in results.items()
    ]
    write_report(
        "pipelined_ec_chunks.txt",
        format_table(
            ["Chunks K", "Iter (ms)", "vs expert-centric"],
            rows,
            title="pipelined-ec chunk-count sweep (overlap gain vs "
            "kernel-launch overhead)",
        ),
    )

    # K=1 is plain EC: one chunk, no overlap, same schedule.
    assert abs(results[1].seconds - ec) / ec < 1e-9
    # Some K must beat plain EC on this comm-heavy model...
    assert min(result.seconds for result in results.values()) < ec
    # ...and the largest K must be worse than the best K (overhead wall).
    best = min(result.seconds for result in results.values())
    assert results[max(CHUNK_SWEEP)].seconds > best
