"""Unified Janus: per-block strategy selection (§5.1.3 "Discussion", §7.5).

Janus evaluates the gain ratio R for every MoE block before training starts
and runs blocks with R > 1 data-centric and the rest expert-centric.  The
two sides of the R cut-over are strategy names
(:mod:`repro.core.strategies`), so e.g. low-R blocks can run
``pipelined-ec`` instead of the plain synchronous All-to-All.  This module
provides the selection plus :func:`engine_for`, the one constructor of the
engines compared in the paper, by mode name:

* ``"unified"`` — per-block choice by R (full Janus);
* ``"auto"``    — R plus the cost model's micro-batch test;
* a strategy name — every MoE block under that strategy, e.g.
  ``"expert-centric"`` (the Tutel baseline and the "expert-centric paradigm
  in Janus" ablation baseline), ``"data-centric"`` or ``"pipelined-ec"``.
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
    comm_expert_centric,
    gain_ratio,
    select_paradigm,
)
from .strategies import get_strategy, strategy_names
from .workload import IterationWorkload, build_workload

__all__ = [
    "strategy_map",
    "auto_schedule_map",
    "engine_for",
    "engine_modes",
]


def strategy_map(
    config: ModelConfig,
    cluster: Cluster,
    threshold: float = 1.0,
    low_r_strategy: str = "expert-centric",
) -> Dict[int, str]:
    """Per-MoE-block strategy choice by the R metric (Eq. 1).

    ``threshold`` is the conservative cut-over of §7.5: blocks with
    R <= threshold run ``low_r_strategy``, a strategy name (see
    :func:`~repro.core.strategies.strategy_names`); the paper raises it
    above 1 when the deployed data-centric path cannot reach the analytic
    bound, e.g. PCIe capping cache-fill bandwidth.  Blocks with
    R > threshold run data-centric, the paper's rule.
    """
    get_strategy(low_r_strategy)  # raises when unknown
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
        mapping[index] = (
            "data-centric"
            if select_paradigm(ratio, threshold) == "data-centric"
            else low_r_strategy
        )
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
    block.  One machine has no cross-node All-to-All to overlap, so there
    every low-R block keeps ``expert-centric``.
    """
    costs = CostModel.for_cluster(
        config, cluster, JanusFeatures(micro_batches=micro_batches)
    )
    n, m = cluster.num_machines, cluster.gpus_per_machine
    mapping = strategy_map(config, cluster, threshold=threshold)
    if n < 2:
        return mapping
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


def engine_modes() -> tuple:
    """Mode names accepted by :func:`engine_for` (and the CLI): every
    block strategy name plus the R-driven ``"unified"`` selector and
    the schedule-aware ``"auto"`` selector."""
    return strategy_names() + ("unified", "auto")


def engine_for(
    mode: str,
    config: ModelConfig,
    cluster: Cluster,
    features: Optional[JanusFeatures] = None,
    workload: Optional[IterationWorkload] = None,
    imbalance: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    check_memory: bool = True,
    fault_plan=None,
    resilience=None,
    controller=None,
    metrics=None,
    trace=None,
    **selector,
) -> JanusEngine:
    """Engine factory by mode name (see :func:`engine_modes`).

    ``"unified"`` maps blocks with :func:`strategy_map` and takes its
    ``threshold``/``low_r_strategy``.  ``"auto"`` maps
    them with :func:`auto_schedule_map` (``threshold`` only) and overlaps
    the backward dense-gradient all-reduce unless ``features`` picks a
    schedule.  A strategy name runs every MoE block under that
    strategy and takes no selector argument.  ``workload`` defaults to
    :func:`build_workload` at ``imbalance`` with ``rng``.
    """
    if mode == "unified":
        mapping = strategy_map(config, cluster, **selector)
    elif mode == "auto":
        if features is None:
            features = JanusFeatures()
        if features.grad_allreduce == "none":
            features = dataclasses.replace(features, grad_allreduce="overlap")
        mapping = auto_schedule_map(
            config, cluster, micro_batches=features.micro_batches, **selector
        )
    elif mode in strategy_names():
        if selector:
            raise TypeError(
                f"mode {mode!r} takes no selector arguments, "
                f"got {sorted(selector)}"
            )
        mapping = dict.fromkeys(config.moe_block_indices, mode)
    else:
        raise ValueError(
            f"unknown mode {mode!r}; expected one of {sorted(engine_modes())}"
        )
    if workload is None:
        workload = build_workload(config, cluster, imbalance=imbalance, rng=rng)
    return JanusEngine(
        cluster,
        workload,
        mapping,
        features=features,
        check_memory=check_memory,
        fault_plan=fault_plan,
        resilience=resilience,
        controller=controller,
        metrics=metrics,
        trace=trace,
    )
