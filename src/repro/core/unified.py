"""Unified Janus: per-block strategy selection (§5.1.3 "Discussion", §7.5).

Janus evaluates the gain ratio R for every MoE block before training starts
and runs blocks with R > 1 data-centric and the rest expert-centric.  The
selector is generalized over the block-strategy registry
(:mod:`repro.core.strategies`): the two sides of the R cut-over are
pluggable strategy names, so e.g. low-R blocks can run ``pipelined-ec``
instead of the plain synchronous All-to-All.  This module provides the
selection plus the engine constructors compared in the paper:

* ``unified_engine``  — per-block choice by R (full Janus);
* ``auto_engine``     — R plus the cost model's micro-batch test;
* ``strategy_engine`` — every MoE block under one registered strategy, e.g.
  ``"expert-centric"`` (the Tutel baseline and the "expert-centric paradigm
  in Janus" ablation baseline), ``"data-centric"`` or ``"pipelined-ec"``;
* ``engine_for``      — any of the above by mode name (the CLI's factory).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..cluster import Cluster
from ..config import ModelConfig
from .context import JanusFeatures
from .engine import JanusEngine
from .paradigm import (
    CostModel,
    Paradigm,
    comm_expert_centric,
    gain_ratio,
    select_paradigm,
)
from .strategies import resolve_strategy_name, strategy_names
from .workload import IterationWorkload, build_workload

__all__ = [
    "strategy_map",
    "auto_schedule_map",
    "unified_engine",
    "auto_engine",
    "strategy_engine",
    "engine_for",
    "engine_modes",
]


def strategy_map(
    config: ModelConfig,
    cluster: Cluster,
    threshold: float = 1.0,
    low_r_strategy: str = "expert-centric",
    high_r_strategy: str = "data-centric",
) -> Dict[int, str]:
    """Per-MoE-block strategy choice by the R metric (Eq. 1).

    ``threshold`` is the conservative cut-over of §7.5: blocks with
    R <= threshold run ``low_r_strategy`` (the paper raises it above 1 when
    the deployed data-centric path cannot reach the analytic bound, e.g.
    PCIe capping cache-fill bandwidth).  Both sides are registered
    block-strategy names, so the selector chooses among N pluggable
    strategies, not a binary enum.
    """
    low = resolve_strategy_name(low_r_strategy)
    high = resolve_strategy_name(high_r_strategy)
    mapping = {}
    world = cluster.num_machines * cluster.gpus_per_machine
    for index in config.moe_block_indices:
        ratio = gain_ratio(
            config.batch_size,
            config.seq_len,
            config.top_k,
            cluster.num_machines,
            config.hidden_dim,
            config.experts_per_worker(index, world),
        )
        paradigm = select_paradigm(ratio, threshold)
        mapping[index] = high if paradigm is Paradigm.DATA_CENTRIC else low
    return mapping


def auto_schedule_map(
    config: ModelConfig,
    cluster: Cluster,
    threshold: float = 1.0,
    micro_batches: int = 4,
) -> Dict[int, str]:
    """:func:`strategy_map` plus the micro-batch pipelining test.

    Blocks with R > ``threshold`` still run data-centric — pipelining
    cannot beat not moving the tokens at all.  A low-R block runs
    ``microbatch-ec`` when :meth:`CostModel.micro_batching_pays` says the
    overlap win of ``micro_batches`` chunks beats their extra kernel
    launches; otherwise it keeps the plain synchronous ``expert-centric``
    block.
    """
    costs = CostModel.for_cluster(
        config, cluster, JanusFeatures(micro_batches=micro_batches)
    )
    n, m = cluster.num_machines, cluster.gpus_per_machine
    mapping = strategy_map(config, cluster, threshold=threshold)
    for index, name in mapping.items():
        if name == "expert-centric" and costs.micro_batching_pays(
            comm_expert_centric(
                config.hidden_dim, config.tokens_per_worker, m, n,
                config.dtype_bytes,
            ),
            config.tokens_per_worker,
            config.experts_per_worker(index, n * m),
        ):
            mapping[index] = "microbatch-ec"
    return mapping


def _workload(
    config: ModelConfig,
    cluster: Cluster,
    workload: Optional[IterationWorkload],
    imbalance: float,
    rng: Optional[np.random.Generator],
) -> IterationWorkload:
    if workload is not None:
        return workload
    return build_workload(config, cluster, imbalance=imbalance, rng=rng)


def unified_engine(
    config: ModelConfig,
    cluster: Cluster,
    features: Optional[JanusFeatures] = None,
    workload: Optional[IterationWorkload] = None,
    imbalance: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    check_memory: bool = True,
    threshold: float = 1.0,
    low_r_strategy: str = "expert-centric",
    high_r_strategy: str = "data-centric",
    fault_plan=None,
    resilience=None,
    degradation=None,
    controller=None,
    metrics=None,
    trace=None,
) -> JanusEngine:
    """Full Janus: per-block strategy by R (see :func:`strategy_map`)."""
    return JanusEngine(
        cluster,
        _workload(config, cluster, workload, imbalance, rng),
        strategy_map(
            config, cluster, threshold=threshold,
            low_r_strategy=low_r_strategy, high_r_strategy=high_r_strategy,
        ),
        features=features,
        check_memory=check_memory,
        fault_plan=fault_plan,
        resilience=resilience,
        degradation=degradation,
        controller=controller,
        metrics=metrics,
        trace=trace,
    )


def auto_engine(
    config: ModelConfig,
    cluster: Cluster,
    features: Optional[JanusFeatures] = None,
    workload: Optional[IterationWorkload] = None,
    imbalance: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    check_memory: bool = True,
    threshold: float = 1.0,
    fault_plan=None,
    resilience=None,
    degradation=None,
    controller=None,
    metrics=None,
    trace=None,
) -> JanusEngine:
    """Schedule-aware unified Janus: per-block choice among data-centric,
    micro-batched and plain expert-centric (see :func:`auto_schedule_map`),
    with the backward dense-gradient all-reduce overlapped by default."""
    if features is None:
        features = JanusFeatures()
    if features.grad_allreduce == "none":
        features = dataclasses.replace(features, grad_allreduce="overlap")
    return JanusEngine(
        cluster,
        _workload(config, cluster, workload, imbalance, rng),
        auto_schedule_map(
            config, cluster, threshold=threshold,
            micro_batches=features.micro_batches,
        ),
        features=features,
        check_memory=check_memory,
        fault_plan=fault_plan,
        resilience=resilience,
        degradation=degradation,
        controller=controller,
        metrics=metrics,
        trace=trace,
    )


def strategy_engine(
    strategy: str,
    config: ModelConfig,
    cluster: Cluster,
    features: Optional[JanusFeatures] = None,
    workload: Optional[IterationWorkload] = None,
    imbalance: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    check_memory: bool = True,
    fault_plan=None,
    resilience=None,
    degradation=None,
    controller=None,
    metrics=None,
    trace=None,
) -> JanusEngine:
    """Every MoE block under one registered block strategy."""
    name = resolve_strategy_name(strategy)
    return JanusEngine(
        cluster,
        _workload(config, cluster, workload, imbalance, rng),
        {index: name for index in config.moe_block_indices},
        features=features,
        check_memory=check_memory,
        fault_plan=fault_plan,
        resilience=resilience,
        degradation=degradation,
        controller=controller,
        metrics=metrics,
        trace=trace,
    )


def engine_modes() -> tuple:
    """Mode names accepted by :func:`engine_for` (and the CLI): every
    registered block strategy plus the R-driven ``"unified"`` selector and
    the schedule-aware ``"auto"`` selector."""
    return tuple(strategy_names()) + ("unified", "auto")


def engine_for(
    mode: str,
    config: ModelConfig,
    cluster: Cluster,
    **kwargs,
) -> JanusEngine:
    """Engine factory by mode name (see :func:`engine_modes`)."""
    if mode == "unified":
        return unified_engine(config, cluster, **kwargs)
    if mode == "auto":
        return auto_engine(config, cluster, **kwargs)
    if mode in strategy_names():
        return strategy_engine(mode, config, cluster, **kwargs)
    raise ValueError(
        f"unknown mode {mode!r}; expected one of {sorted(engine_modes())}"
    )
