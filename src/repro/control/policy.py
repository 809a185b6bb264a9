"""Decision logic of the adaptive control plane.

:class:`ControlPolicy` runs once between iterations, over the measured
:class:`~repro.control.signals.ControlSignals`, and emits a
:class:`ControlDecision`: per-block paradigm switches (fault-driven,
load-driven, or recovery) plus the target expert-replica map.  Three design
rules keep it honest:

* **Adapt to change, not to level.**  Load signals are compared against a
  per-block *reference* captured on the first observed iteration, and the
  load/replication arms only engage once the deviation from that reference
  exceeds a deadband.  The simulation is deterministic, so on a static
  workload the deviation is exactly zero and the policy is structurally
  inert — attaching a controller to a drift-free, fault-free run is
  bit-identical to not attaching one.
* **Hysteresis.**  Switching needs drift past the ``deviation`` deadband
  and a cost-model win of at least :data:`HYSTERESIS`; load recovery needs
  a calm streak below half the deadband.  Oscillating load therefore
  cannot flap a block (tested in ``tests/test_control_policy``).
* **Probation-based recovery.**  A recovered block is on probation for
  :data:`PROBATION` iterations; if it re-degrades during (or right after)
  probation, the clean-streak target doubles, up to :data:`MAX_BACKOFF` —
  repeated flapping gets exponentially harder, never one-way as the old
  ratchet was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..clauses import parse_clauses
from ..core.paradigm import CostModel
from ..core.strategies import get_strategy
from ..domains import NON_NEGATIVE, POSITIVE_INT, check_fields, domain
from .signals import BlockLoadSignals, ControlSignals

__all__ = [
    "ControlConfig",
    "ControlDecision",
    "ControlPolicy",
    "ChunkPlan",
    "tune_engine_chunks",
]

# Total-variation distance of a block's expert-share vector from its
# reference before the replication arm engages: catches hotspot *identity*
# shifts (rotate drift) that leave machine imbalance flat.
SHARE_DEVIATION = 0.1
# Required relative cost-model win of the load arm's target.
HYSTERESIS = 0.1
# Post-recovery window during which re-degrading doubles the streak target.
PROBATION = 2
# Cap on that doubling.
MAX_BACKOFF = 4
# The load arm's target: pull-based fetching is immune to machine skew.
LOAD_STRATEGY = "data-centric"
# Replication watermarks: an expert must hold HOT_FACTOR/E of its block's
# tokens to gain replicas and keeps them down to EVICT_FACTOR/E.
HOT_FACTOR = 4.0
EVICT_FACTOR = 2.0
# Cap on cluster-wide (block, expert, machine) replica entries.
MAX_REPLICAS = 16


@dataclass(frozen=True)
class ControlConfig:
    """Knobs of the load/replication arms (the fault arm keeps its knob on
    :class:`~repro.faults.DegradationPolicy`).

    ``deviation`` is the deadband: relative growth of a block's
    machine-imbalance over its reference before the load arm may act; a
    load-degraded block counts as calm at half of it (a lower exit than
    entry bar).  ``recover_after_clean`` is the calm streak earning
    recovery.  ``adapt_load`` and ``adapt_replicas`` switch the load and
    replication arms.  Replicas go only to blocks running a Task Queue
    strategy (replicas serve pull fetches, so All-to-All blocks cannot use
    them).
    """

    deviation: float = domain(NON_NEGATIVE, 0.25)
    recover_after_clean: int = domain(POSITIVE_INT, 2)
    adapt_load: bool = True
    adapt_replicas: bool = True

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def parse(cls, text: str) -> "ControlConfig":
        """Parse the CLI grammar, e.g.
        ``deviation=0.3;recover_after_clean=1;replicas=off``.  The bare
        word ``adaptive`` (or an empty string) means all defaults; booleans
        accept ``on``/``off``.
        """
        return parse_clauses(
            cls(), text, "control",
            flags={
                "load": "adapt_load",
                "replicas": "adapt_replicas",
            },
            ignore="adaptive",
        )


@dataclass(frozen=True)
class ChunkPlan:
    """One chunk-tuning pass over an engine's upcoming iteration.

    ``block_chunks`` holds the per-block chunk counts chosen for the
    chunked-EC blocks (the ``JanusFeatures.block_chunks`` overrides);
    ``micro_batches`` is the single global M for the micro-capable blocks
    (micro lanes are per-rank structure shared by every micro-capable
    block, so M cannot vary per block); ``predicted_chunk_s`` maps block ->
    the cost model's uncontended per-chunk All-to-All seconds, compared
    against measured per-chunk times in ``repro report``.
    """

    block_chunks: Tuple[Tuple[int, int], ...] = ()
    micro_batches: Optional[int] = None
    predicted_chunk_s: Tuple[Tuple[int, float], ...] = ()

    @property
    def empty(self) -> bool:
        return not self.block_chunks and self.micro_batches is None


def tune_engine_chunks(engine, max_chunks: int = 64) -> ChunkPlan:
    """Pick chunk counts for every chunked-EC block of ``engine``'s next
    iteration from its (already drifted) routing.

    Routing is fixed per iteration and produced by the gate before any MoE
    communication starts, so the signals are available *before* the
    iteration runs — the same information window the paradigm selector
    uses.  Pipelined-ec blocks get individual ``tune_chunks`` optima;
    microbatch-ec blocks share one global M minimizing the summed estimate.
    """
    costs = CostModel.for_cluster(
        engine.workload.config, engine.cluster, engine.features
    )
    layout = engine.workload.layout
    overrides: List[Tuple[int, int]] = []
    predictions: List[Tuple[int, float]] = []
    micro_sigs: Dict[int, BlockLoadSignals] = {}
    for block in engine.workload.moe_blocks():
        name = engine.block_strategies.get(block.index)
        if name not in ("pipelined-ec", "microbatch-ec"):
            continue
        sig = BlockLoadSignals.from_block(block, layout)
        if name == "microbatch-ec":
            micro_sigs[block.index] = sig
            continue
        chunks = costs.tune_chunks(sig, max_chunks=max_chunks)
        overrides.append((block.index, chunks))
        predictions.append(
            (block.index, costs.a2a_chunk_seconds(sig, chunks))
        )

    micro: Optional[int] = None
    if micro_sigs:
        micro = costs.tune_micro_batches(
            micro_sigs.values(), max_chunks=max_chunks
        )
        predictions.extend(
            (index, costs.a2a_chunk_seconds(sig, micro))
            for index, sig in micro_sigs.items()
        )
    return ChunkPlan(
        block_chunks=tuple(overrides),
        micro_batches=micro,
        predicted_chunk_s=tuple(sorted(predictions)),
    )


@dataclass
class ControlDecision:
    """What one control step changes (empty dicts = leave everything)."""

    iteration: int
    # Block -> new strategy name; only *changes* appear here.
    strategies: Dict[int, str] = field(default_factory=dict)
    # Block -> why ("fault" | "load" | "recover").
    causes: Dict[int, str] = field(default_factory=dict)
    # Replica entries added/removed this step: (block, expert, machine).
    replicate: List[Tuple[int, int, int]] = field(default_factory=list)
    evict: List[Tuple[int, int, int]] = field(default_factory=list)
    # Full replica map after this step: block -> expert -> machines.
    replicas: Dict[int, Dict[int, Tuple[int, ...]]] = field(
        default_factory=dict
    )

    @property
    def empty(self) -> bool:
        return not (self.strategies or self.replicate or self.evict)


@dataclass
class _BlockState:
    """Mutable per-block controller state (the state machine node)."""

    mode: str = "normal"          # normal | degraded | probation
    cause: Optional[str] = None   # fault | load (while degraded)
    streak: int = 0               # consecutive clean/calm iterations
    probation: int = 0            # remaining probation iterations
    backoff: int = 1              # clean-streak multiplier (doubles on flap)


class ControlPolicy:
    """Per-block state machine unifying the fault and load arms.

    ``degradation`` (a :class:`~repro.faults.DegradationPolicy`) is the
    fault arm, and this is its only way into the engine: its ``decide``
    keeps picking the blocks to degrade, and its ``recover_after_clean``
    knob (None = one-way ratchet) arms probation-based recovery.  The
    load and replication arms follow ``config``; with
    ``ControlConfig(adapt_load=False, adapt_replicas=False)`` the policy
    runs the fault arm alone.  ``preferred`` remembers each block's original (Eq. 1)
    strategy — the recovery target.
    """

    def __init__(self, config: Optional[ControlConfig] = None,
                 degradation=None):
        self.config = config if config is not None else ControlConfig()
        self.degradation = degradation
        self.preferred: Dict[int, str] = {}
        self.reference: Dict[int, float] = {}
        self.reference_share: Dict[int, np.ndarray] = {}
        self.replicas: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        self._state: Dict[int, _BlockState] = {}

    def attach(self, strategies: Dict[int, str]) -> None:
        """Record the engine's starting strategy map as the preference."""
        for block, name in strategies.items():
            self.preferred.setdefault(block, name)

    def state_of(self, block: int) -> _BlockState:
        return self._state.setdefault(block, _BlockState())

    def deviation_of(self, block: int, sig: BlockLoadSignals) -> float:
        """Relative machine-imbalance growth over the block's reference."""
        ref = self.reference.setdefault(block, sig.machine_imbalance)
        return (sig.machine_imbalance - ref) / max(ref, 1.0)

    def share_drift_of(self, block: int, sig: BlockLoadSignals) -> float:
        """Total-variation distance of the expert-share vector from the
        block's reference share (0 = identical popularity, 1 = disjoint)."""
        ref = self.reference_share.setdefault(
            block, np.array(sig.expert_share, dtype=float)
        )
        if ref.shape != sig.expert_share.shape:
            return 0.0
        return float(0.5 * np.abs(sig.expert_share - ref).sum())

    # -- the decision step ---------------------------------------------------

    def decide(
        self,
        signals: ControlSignals,
        costs: Optional[CostModel] = None,
    ) -> ControlDecision:
        """One control step over one iteration's signals."""
        self.attach(signals.strategies)
        decision = ControlDecision(iteration=signals.iteration)
        fault_targets: Dict[int, str] = {}
        if self.degradation is not None and signals.fault_stats is not None:
            fault_targets = self.degradation.decide(signals.fault_stats)

        drifted: Dict[int, bool] = {}
        for block in sorted(signals.strategies):
            sig = signals.blocks.get(block)
            deviation = (
                self.deviation_of(block, sig) if sig is not None else 0.0
            )
            share_drift = (
                self.share_drift_of(block, sig) if sig is not None else 0.0
            )
            drifted[block] = (
                deviation > self.config.deviation
                or share_drift > SHARE_DEVIATION
            )
            self._decide_block(
                block, signals, decision, fault_targets, deviation, costs,
            )
        self._decide_replicas(signals, decision, drifted)
        return decision

    def _decide_block(
        self, block, signals, decision, fault_targets, deviation, costs
    ) -> None:
        cfg = self.config
        state = self.state_of(block)
        current = signals.strategies[block]
        on_probation = state.mode == "probation"
        if on_probation:
            state.probation -= 1
            if state.probation <= 0:
                state.mode = "normal"
                state.backoff = 1

        # Fault arm dominates: a block the DegradationPolicy names must
        # degrade now, whatever the load arm thinks.
        if block in fault_targets:
            if on_probation:
                state.backoff = min(state.backoff * 2, MAX_BACKOFF)
            state.mode, state.cause = "degraded", "fault"
            state.streak = 0
            target = fault_targets[block]
            if current != target:
                decision.strategies[block] = target
                decision.causes[block] = "fault"
            return

        if state.mode == "degraded" and state.cause == "fault":
            recover_after = getattr(
                self.degradation, "recover_after_clean", None
            )
            if recover_after is None:
                return          # one-way ratchet
            state.streak = state.streak + 1 if signals.fault_clean else 0
            if state.streak >= recover_after * state.backoff:
                self._recover(block, current, decision, state)
            return

        sig = signals.blocks.get(block)
        if not cfg.adapt_load or sig is None:
            return

        if state.mode == "degraded" and state.cause == "load":
            calm = deviation <= cfg.deviation / 2.0
            state.streak = state.streak + 1 if calm else 0
            if state.streak >= cfg.recover_after_clean * state.backoff:
                self._recover(block, current, decision, state)
            return

        # Normal / probation: switch on drift the cost model says pays.
        drifted = deviation > cfg.deviation
        if not drifted or costs is None or current == LOAD_STRATEGY:
            return
        current_cost = costs.estimate(sig, current)
        target_cost = costs.estimate(sig, LOAD_STRATEGY)
        if target_cost >= current_cost * (1.0 - HYSTERESIS):
            return
        if on_probation:
            state.backoff = min(state.backoff * 2, MAX_BACKOFF)
        state.mode, state.cause = "degraded", "load"
        state.streak = 0
        decision.strategies[block] = LOAD_STRATEGY
        decision.causes[block] = "load"

    def _recover(self, block, current, decision, state) -> None:
        state.mode, state.cause = "probation", None
        state.probation = PROBATION
        state.streak = 0
        preferred = self.preferred.get(block, current)
        if current != preferred:
            decision.strategies[block] = preferred
            decision.causes[block] = "recover"

    # -- replication arm -----------------------------------------------------

    def _decide_replicas(self, signals, decision, drifted_blocks) -> None:
        if not self.config.adapt_replicas:
            decision.replicas = self.replicas
            return
        effective = dict(signals.strategies)
        effective.update(decision.strategies)

        entries: List[Tuple[float, int, int, Tuple[int, ...]]] = []
        for block in sorted(signals.blocks):
            sig = signals.blocks[block]
            if not get_strategy(effective[block]).uses_task_queue:
                continue
            held = self.replicas.get(block, {})
            hot_cut = HOT_FACTOR / sig.num_experts
            keep_cut = EVICT_FACTOR / sig.num_experts
            drifted = drifted_blocks.get(block, False)
            for expert in range(sig.num_experts):
                share = float(sig.expert_share[expert])
                holding = expert in held
                # Enter at the hot watermark (and only under drift — a
                # statically hot expert is a placement problem, not a
                # control-plane event); keep down to the evict watermark.
                if holding:
                    if share < keep_cut:
                        continue
                elif share < hot_cut or not drifted:
                    continue
                machines = tuple(
                    machine
                    for machine in sorted(sig.external_demand)
                    if expert in sig.external_demand[machine]
                )
                if machines:
                    entries.append((share, block, expert, machines))

        # Hottest experts claim the budget first; ties break low-index.
        entries.sort(key=lambda e: (-e[0], e[1], e[2]))
        new_map: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        budget = MAX_REPLICAS
        for share, block, expert, machines in entries:
            take = machines[:budget]
            if not take:
                break
            new_map.setdefault(block, {})[expert] = take
            budget -= len(take)

        old_entries = {
            (block, expert, machine)
            for block, experts in self.replicas.items()
            for expert, machines in experts.items()
            for machine in machines
        }
        new_entries = {
            (block, expert, machine)
            for block, experts in new_map.items()
            for expert, machines in experts.items()
            for machine in machines
        }
        decision.replicate = sorted(new_entries - old_entries)
        decision.evict = sorted(old_entries - new_entries)
        decision.replicas = new_map
        self.replicas = new_map
