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
* **Hysteresis everywhere.**  Switching needs ``patience`` consecutive
  drifted iterations, a cost-model win of at least ``hysteresis`` margin,
  and a ``cooldown`` gap between switches; recovery needs a calm/clean
  streak and exits through a ``probation`` window.  Oscillating load
  therefore cannot flap a block (tested in ``tests/test_control_policy``).
* **Probation-based recovery.**  A recovered block is on probation; if it
  re-degrades during (or right after) probation, the clean-streak target
  doubles, up to ``max_backoff`` — repeated flapping gets exponentially
  harder, never one-way as the old ratchet was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..clauses import parse_clauses
from ..core.paradigm import CostModel
from .signals import BlockLoadSignals, ControlSignals

__all__ = [
    "ControlConfig",
    "ControlDecision",
    "ControlPolicy",
    "ChunkPlan",
    "tune_engine_chunks",
]


@dataclass(frozen=True)
class ControlConfig:
    """Knobs of the load/replication arms (the fault arm keeps its knobs on
    :class:`~repro.faults.DegradationPolicy`).

    ``deviation`` is the deadband: relative growth of a block's
    machine-imbalance over its reference before the load arm may act.
    ``recover_deviation`` (default: half the deadband) is the calm
    threshold for recovery — a lower exit than entry bar, classic
    hysteresis.  ``hysteresis`` is the required cost-model win margin;
    ``patience`` the consecutive drifted iterations before switching;
    ``cooldown`` the minimum gap (iterations) after any switch;
    ``recover_after_clean`` the calm/clean streak earning recovery;
    ``probation`` the post-recovery window during which re-degrading
    doubles the streak target (up to ``max_backoff``).

    Replication: only blocks running a strategy in ``replicable`` (the
    pull-based ones — replicas serve fetches, so All-to-All blocks cannot
    use them) get replicas; an expert must hold ``hot_factor/E`` of the
    block's tokens to gain replicas and keeps them down to
    ``evict_factor/E`` (enter/exit watermarks); ``max_replicas`` caps
    cluster-wide ``(block, expert, machine)`` entries.
    """

    deviation: float = 0.25
    recover_deviation: Optional[float] = None
    # Total-variation distance of a block's expert-share vector from its
    # reference before the replication arm engages: catches hotspot
    # *identity* shifts (rotate drift) that leave machine imbalance flat.
    share_deviation: float = 0.1
    hysteresis: float = 0.1
    patience: int = 1
    cooldown: int = 1
    recover_after_clean: int = 2
    probation: int = 2
    max_backoff: int = 4
    load_strategy: str = "data-centric"
    adapt_load: bool = True
    adapt_replicas: bool = True
    replicable: Tuple[str, ...] = ("data-centric",)
    hot_factor: float = 4.0
    evict_factor: float = 2.0
    max_replicas: int = 16

    def __post_init__(self):
        if self.deviation < 0:
            raise ValueError("deviation must be non-negative")
        if self.recover_deviation is not None and self.recover_deviation < 0:
            raise ValueError("recover_deviation must be non-negative")
        if self.share_deviation < 0:
            raise ValueError("share_deviation must be non-negative")
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        if self.patience <= 0 or self.cooldown < 0:
            raise ValueError("patience must be positive, cooldown >= 0")
        if self.recover_after_clean <= 0 or self.probation <= 0:
            raise ValueError("recover_after_clean/probation must be positive")
        if self.max_backoff < 1:
            raise ValueError("max_backoff must be >= 1")
        if self.hot_factor <= 1 or self.evict_factor <= 0:
            raise ValueError("hot_factor must be > 1, evict_factor > 0")
        if self.evict_factor > self.hot_factor:
            raise ValueError("evict_factor must not exceed hot_factor")
        if self.max_replicas < 0:
            raise ValueError("max_replicas must be non-negative")

    @property
    def calm_deviation(self) -> float:
        return (
            self.recover_deviation
            if self.recover_deviation is not None
            else self.deviation / 2.0
        )

    @classmethod
    def parse(cls, text: str) -> "ControlConfig":
        """Parse the CLI grammar, e.g.
        ``deviation=0.3;patience=2;replicas=off``.  The bare word
        ``adaptive`` (or an empty string) means all defaults; booleans
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
    pending: int = 0              # consecutive drifted iterations seen
    streak: int = 0               # consecutive clean/calm iterations
    cooldown: int = 0             # iterations until next switch allowed
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
                or share_drift > self.config.share_deviation
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
        if state.cooldown > 0:
            state.cooldown -= 1
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
                state.backoff = min(state.backoff * 2, cfg.max_backoff)
            state.mode, state.cause = "degraded", "fault"
            state.streak = state.pending = 0
            state.cooldown = cfg.cooldown
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
            calm = deviation <= cfg.calm_deviation
            state.streak = state.streak + 1 if calm else 0
            if state.streak >= cfg.recover_after_clean * state.backoff:
                self._recover(block, current, decision, state)
            return

        # Normal / probation: watch for sustained drift worth switching on.
        drifted = deviation > cfg.deviation
        state.pending = state.pending + 1 if drifted else 0
        if (
            not drifted
            or state.pending < cfg.patience
            or state.cooldown > 0
            or costs is None
        ):
            return
        target = cfg.load_strategy
        if target == current:
            return
        current_cost = costs.estimate(sig, current)
        target_cost = costs.estimate(sig, target)
        if target_cost >= current_cost * (1.0 - cfg.hysteresis):
            return
        if on_probation:
            state.backoff = min(state.backoff * 2, cfg.max_backoff)
        state.mode, state.cause = "degraded", "load"
        state.streak = state.pending = 0
        state.cooldown = cfg.cooldown
        decision.strategies[block] = target
        decision.causes[block] = "load"

    def _recover(self, block, current, decision, state) -> None:
        cfg = self.config
        state.mode, state.cause = "probation", None
        state.probation = cfg.probation
        state.streak = 0
        state.cooldown = cfg.cooldown
        preferred = self.preferred.get(block, current)
        if current != preferred:
            decision.strategies[block] = preferred
            decision.causes[block] = "recover"

    # -- replication arm -----------------------------------------------------

    def _decide_replicas(self, signals, decision, drifted_blocks) -> None:
        cfg = self.config
        if not cfg.adapt_replicas:
            decision.replicas = self.replicas
            return
        effective = dict(signals.strategies)
        effective.update(decision.strategies)

        entries: List[Tuple[float, int, int, Tuple[int, ...]]] = []
        for block in sorted(signals.blocks):
            sig = signals.blocks[block]
            if effective.get(block) not in cfg.replicable:
                continue
            held = self.replicas.get(block, {})
            hot_cut = cfg.hot_factor / sig.num_experts
            keep_cut = cfg.evict_factor / sig.num_experts
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
        budget = cfg.max_replicas
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
