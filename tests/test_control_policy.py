"""Unit tests of the adaptive control plane's decision layer.

Covers the drift generators (:mod:`repro.workloads.drift` and the
:class:`~repro.models.DriftingGate`), the CLI parse grammars, the
measured-load cost model, and the :class:`~repro.control.ControlPolicy`
state machine: hysteresis (oscillating sub-deadband load must not flap),
probation-based recovery with exponential backoff, the fault arm's legacy
one-way ratchet, and the replication watermarks/budget.
"""

import numpy as np
import pytest

from repro.control import (
    BlockLoadSignals,
    ControlConfig,
    ControlPolicy,
    ControlSignals,
)
from repro.core import CostModel
from repro.faults import DegradationPolicy
from repro.faults.injector import FaultStats
from repro.models import DriftingGate, TopKGate
from repro.tensorlib import Tensor
from repro.workloads import DRIFT_KINDS, DriftSpec, drift_weights

BLOCK = 10


# -- helpers ---------------------------------------------------------------


def make_sig(
    machine_imbalance=1.0,
    share=None,
    bottleneck=100,
    max_rank=300,
    num_experts=8,
):
    """A hand-built BlockLoadSignals for an 8-expert, 2-machine block."""
    if share is None:
        share = np.full(num_experts, 1.0 / num_experts)
    external = {
        0: frozenset(range(num_experts // 2, num_experts)),
        1: frozenset(range(num_experts // 2)),
    }
    return BlockLoadSignals(
        block=BLOCK,
        num_experts=num_experts,
        experts_per_worker=2,
        tokens_total=4096,
        expert_share=np.asarray(share, dtype=float),
        machine_imbalance=machine_imbalance,
        max_rank_recv=max_rank,
        a2a_bottleneck_tokens=bottleneck,
        external_demand=external,
        external_counts={m: len(s) for m, s in external.items()},
        active_experts_per_rank=float(num_experts),
    )


def make_signals(sig, strategy="microbatch-ec", iteration=1, fault_stats=None):
    return ControlSignals(
        iteration=iteration,
        strategies={sig.block: strategy},
        blocks={sig.block: sig},
        fault_stats=fault_stats,
    )


# Magnitudes chosen so skewed All-to-All bottlenecks dominate the EC
# family while the data-centric estimate barely moves.
COSTS = CostModel(
    token_bytes=2048.0,
    expert_bytes=4e6,
    expert_flops=1e7,
    gpu_flops=1e13,
    nic_bandwidth=1e10,
    kernel_overhead=1e-5,
    micro_batches=4,
    ec_pipeline_chunks=4,
)

BALANCED = make_sig(machine_imbalance=1.0, bottleneck=100, max_rank=300)
SKEWED = make_sig(machine_imbalance=1.9, bottleneck=40000, max_rank=3000)


# -- drift generators ------------------------------------------------------


class TestDriftSpec:
    def test_parse_full_grammar(self):
        spec = DriftSpec.parse("flip;skew=1.5;period=2;seed=7")
        assert spec.kind == "flip"
        assert spec.skew == 1.5
        assert spec.period == 2
        assert spec.seed == 7

    def test_parse_defaults_to_static(self):
        assert DriftSpec.parse("").kind == "static"

    @pytest.mark.parametrize("text", [
        "nonsense",                # bare word that is not a kind
        "flip;bogus=3",            # unknown field
        "flip;period=two",         # bad literal
        "kind=spiral",             # unknown kind (validation)
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            DriftSpec.parse(text)

    @pytest.mark.parametrize("kind", DRIFT_KINDS)
    def test_weights_are_a_distribution(self, kind):
        spec = DriftSpec(kind=kind, skew=1.3, seed=3)
        for iteration in (0, 1, 5):
            weights = spec.weights(16, iteration, block_index=BLOCK)
            assert weights.shape == (16,)
            assert np.all(weights > 0)
            assert weights.sum() == pytest.approx(1.0)

    def test_weights_deterministic(self):
        spec = DriftSpec(kind="walk", step=0.3, seed=11)
        first = drift_weights(spec, 32, 4, BLOCK)
        again = drift_weights(spec, 32, 4, BLOCK)
        np.testing.assert_array_equal(first, again)

    def test_flip_starts_at_low_skew_pole(self):
        spec = DriftSpec(kind="flip", skew=1.5, low_skew=0.0, period=2)
        assert spec.skew_at(0) == 0.0
        assert spec.skew_at(1) == 0.0
        assert spec.skew_at(2) == 1.5
        assert spec.skew_at(4) == 0.0

    def test_rotate_shifts_hot_identity_keeps_values(self):
        spec = DriftSpec(kind="rotate", skew=2.0, period=1, shift=1, seed=5)
        before = spec.weights(16, 0, BLOCK)
        after = spec.weights(16, 1, BLOCK)
        # Same popularity values, assigned to different experts.
        np.testing.assert_allclose(np.sort(before), np.sort(after))
        assert int(before.argmax()) != int(after.argmax())

    def test_walk_with_zero_step_is_static(self):
        still = DriftSpec(kind="walk", skew=1.2, step=0.0, seed=2)
        static = DriftSpec(kind="static", skew=1.2, seed=2)
        np.testing.assert_allclose(
            still.weights(16, 7, BLOCK), static.weights(16, 7, BLOCK)
        )


class TestDriftingGate:
    HIDDEN, EXPERTS, TOKENS = 8, 4, 256

    def _tokens(self):
        rng = np.random.default_rng(0)
        return Tensor(rng.standard_normal((self.TOKENS, self.HIDDEN)))

    def test_zero_bias_strength_matches_plain_gate(self):
        plain = TopKGate(self.HIDDEN, self.EXPERTS, 1,
                         rng=np.random.default_rng(1))
        drifting = DriftingGate(self.HIDDEN, self.EXPERTS, 1,
                                rng=np.random.default_rng(1),
                                bias_strength=0.0)
        tokens = self._tokens()
        np.testing.assert_array_equal(
            plain.forward(tokens).expert_indices,
            drifting.forward(tokens).expert_indices,
        )

    def test_strong_bias_tracks_drifting_hotspot(self):
        gate = DriftingGate(
            self.HIDDEN, self.EXPERTS, 1,
            rng=np.random.default_rng(1),
            drift=DriftSpec(kind="rotate", skew=3.0, period=1, seed=9),
            bias_strength=50.0,
        )
        tokens = self._tokens()
        seen = []
        for iteration in range(3):
            gate.advance(iteration)
            decision = gate.forward(tokens)
            histogram = decision.tokens_per_expert(self.EXPERTS)
            assert int(histogram.argmax()) == int(gate.popularity().argmax())
            seen.append(int(histogram.argmax()))
        assert len(set(seen)) > 1        # the hotspot actually moved

    def test_advance_defaults_to_next_iteration(self):
        gate = DriftingGate(self.HIDDEN, self.EXPERTS, 1)
        assert gate.advance() == 1
        assert gate.advance(5) == 5
        with pytest.raises(ValueError):
            gate.advance(-1)


# -- config grammar --------------------------------------------------------


class TestControlConfig:
    def test_parse_bare_adaptive_is_defaults(self):
        assert ControlConfig.parse("adaptive") == ControlConfig()

    def test_parse_fields_and_flags(self):
        spec = ControlConfig.parse(
            "adaptive;deviation=0.3;patience=2;replicas=off;"
            "load_strategy=data-centric;recover_after_clean=1"
        )
        assert spec.deviation == 0.3
        assert spec.patience == 2
        assert spec.adapt_replicas is False
        assert spec.adapt_load is True
        assert spec.recover_after_clean == 1

    @pytest.mark.parametrize("text", [
        "bogus_field=1",
        "load=maybe",
        "deviation=fast",
        "patience",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            ControlConfig.parse(text)

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlConfig(patience=0)
        with pytest.raises(ValueError):
            ControlConfig(hot_factor=0.5)
        with pytest.raises(ValueError):
            ControlConfig(evict_factor=5.0, hot_factor=4.0)

    @pytest.mark.parametrize("fields", [
        {"load_strategy": "bogus"},
        {"replicable": ("data-centric", "bogus")},
    ])
    def test_unknown_strategy_names_rejected(self, fields):
        with pytest.raises(ValueError, match="bogus"):
            ControlConfig(**fields)

    def test_calm_deviation_defaults_to_half_deadband(self):
        assert ControlConfig(deviation=0.4).calm_deviation == 0.2
        assert ControlConfig(recover_deviation=0.05).calm_deviation == 0.05


# -- cost model ------------------------------------------------------------


class TestCostModel:
    def test_skew_inflates_ec_family_not_dc(self):
        for strategy in ("expert-centric", "microbatch-ec", "pipelined-ec"):
            assert COSTS.estimate(SKEWED, strategy) > 2 * COSTS.estimate(
                BALANCED, strategy
            )
        # DC pays fetch sets + mean compute; skew leaves both untouched.
        assert COSTS.estimate(SKEWED, "data-centric") == pytest.approx(
            COSTS.estimate(BALANCED, "data-centric")
        )

    def test_overlap_beats_plain_ec(self):
        assert COSTS.estimate(SKEWED, "microbatch-ec") < COSTS.estimate(
            SKEWED, "expert-centric"
        )

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            COSTS.estimate(BALANCED, "quantum")


# -- the policy state machine ----------------------------------------------


def calm_policy(**overrides):
    config = ControlConfig(**{
        "deviation": 0.25, "patience": 1, "cooldown": 0,
        "recover_after_clean": 1, "probation": 2, "hysteresis": 0.1,
        "adapt_replicas": False, **overrides,
    })
    return ControlPolicy(config=config)


class TestLoadArm:
    def test_static_signals_are_structurally_inert(self):
        policy = calm_policy()
        for iteration in range(4):
            decision = policy.decide(
                make_signals(BALANCED, iteration=iteration), COSTS
            )
            assert decision.empty

    def test_sub_deadband_oscillation_never_flaps(self):
        policy = calm_policy()
        wobble = make_sig(machine_imbalance=1.2, bottleneck=200)
        for iteration in range(8):
            sig = BALANCED if iteration % 2 == 0 else wobble
            decision = policy.decide(
                make_signals(sig, iteration=iteration), COSTS
            )
            assert decision.empty
        assert policy.state_of(BLOCK).mode == "normal"

    def test_switch_recover_and_probation_backoff(self):
        policy = calm_policy()
        # Reference capture on a balanced iteration.
        assert policy.decide(make_signals(BALANCED, iteration=0), COSTS).empty

        # Sustained drift with a clear cost win: switch to data-centric.
        decision = policy.decide(make_signals(SKEWED, iteration=1), COSTS)
        assert decision.strategies == {BLOCK: "data-centric"}
        assert decision.causes == {BLOCK: "load"}

        # Calm again: one calm observation earns recovery (to the
        # preferred strategy recorded at attach time), entering probation.
        decision = policy.decide(
            make_signals(BALANCED, "data-centric", iteration=2), COSTS
        )
        assert decision.strategies == {BLOCK: "microbatch-ec"}
        assert decision.causes == {BLOCK: "recover"}
        assert policy.state_of(BLOCK).mode == "probation"

        # Re-degrading during probation doubles the clean-streak target.
        decision = policy.decide(make_signals(SKEWED, iteration=3), COSTS)
        assert decision.causes == {BLOCK: "load"}
        assert policy.state_of(BLOCK).backoff == 2

        # Now one calm iteration is no longer enough...
        assert policy.decide(
            make_signals(BALANCED, "data-centric", iteration=4), COSTS
        ).empty
        # ...two are.
        decision = policy.decide(
            make_signals(BALANCED, "data-centric", iteration=5), COSTS
        )
        assert decision.causes == {BLOCK: "recover"}

    def test_no_switch_without_cost_win(self):
        policy = calm_policy()
        policy.decide(make_signals(BALANCED, iteration=0), COSTS)
        # Imbalance grew past the deadband but the All-to-All bottleneck
        # did not: the cost model sees no win, so no switch.
        drifted = make_sig(machine_imbalance=1.9, bottleneck=100)
        assert policy.decide(make_signals(drifted, iteration=1), COSTS).empty

    def test_adapt_load_off_disables_switching(self):
        policy = calm_policy(adapt_load=False)
        policy.decide(make_signals(BALANCED, iteration=0), COSTS)
        assert policy.decide(make_signals(SKEWED, iteration=1), COSTS).empty


class TestFaultArm:
    def _faulted(self, sig, strategy, iteration):
        stats = FaultStats()
        stats.count_fallback(BLOCK)
        stats.dropped_messages = 3
        return make_signals(sig, strategy, iteration, fault_stats=stats)

    def _clean(self, sig, strategy, iteration):
        return make_signals(
            sig, strategy, iteration, fault_stats=FaultStats()
        )

    def test_legacy_one_way_ratchet(self):
        policy = ControlPolicy(
            config=ControlConfig(adapt_load=False, adapt_replicas=False),
            degradation=DegradationPolicy(),
        )
        decision = policy.decide(self._faulted(BALANCED, "data-centric", 0))
        assert decision.strategies == {BLOCK: "expert-centric"}
        assert decision.causes == {BLOCK: "fault"}
        # No recover_after_clean: clean iterations never un-degrade.
        for iteration in range(1, 5):
            assert policy.decide(
                self._clean(BALANCED, "expert-centric", iteration)
            ).empty

    def test_probation_recovery_after_clean_streak(self):
        policy = ControlPolicy(
            config=ControlConfig(adapt_load=False, adapt_replicas=False),
            degradation=DegradationPolicy(recover_after_clean=2),
        )
        assert policy.decide(
            self._faulted(BALANCED, "data-centric", 0)
        ).causes == {BLOCK: "fault"}
        # Streak must reach 2 clean iterations before the trial return.
        assert policy.decide(self._clean(BALANCED, "expert-centric", 1)).empty
        decision = policy.decide(self._clean(BALANCED, "expert-centric", 2))
        assert decision.strategies == {BLOCK: "data-centric"}
        assert decision.causes == {BLOCK: "recover"}
        assert policy.state_of(BLOCK).mode == "probation"

        # Re-faulting during probation doubles the streak target.
        assert policy.decide(
            self._faulted(BALANCED, "data-centric", 3)
        ).causes == {BLOCK: "fault"}
        assert policy.state_of(BLOCK).backoff == 2
        # The doubled target now needs 4 clean iterations, not 2.
        for iteration in (4, 5, 6):
            assert policy.decide(
                self._clean(BALANCED, "expert-centric", iteration)
            ).empty
        decision = policy.decide(self._clean(BALANCED, "expert-centric", 7))
        assert decision.causes == {BLOCK: "recover"}

    def test_dirty_iteration_resets_the_streak(self):
        policy = ControlPolicy(
            config=ControlConfig(adapt_load=False, adapt_replicas=False),
            degradation=DegradationPolicy(recover_after_clean=2),
        )
        policy.decide(self._faulted(BALANCED, "data-centric", 0))
        policy.decide(self._clean(BALANCED, "expert-centric", 1))
        # A dropped message anywhere resets the clean streak, without
        # re-triggering degradation (no per-block fallbacks).
        stats = FaultStats()
        stats.dropped_messages = 1
        policy.decide(
            make_signals(BALANCED, "expert-centric", 2, fault_stats=stats)
        )
        assert policy.decide(self._clean(BALANCED, "expert-centric", 3)).empty
        assert policy.decide(
            self._clean(BALANCED, "expert-centric", 4)
        ).causes == {BLOCK: "recover"}


class TestReplicationArm:
    def _policy(self, **overrides):
        config = ControlConfig(**{
            "deviation": 0.25, "adapt_load": False,
            "hot_factor": 4.0, "evict_factor": 2.0, "max_replicas": 16,
            **overrides,
        })
        return ControlPolicy(config=config)

    @staticmethod
    def _share(hot_share):
        share = np.full(8, (1.0 - hot_share) / 7.0)
        share[0] = hot_share
        return share

    def test_hot_expert_replicates_then_evicts(self):
        policy = self._policy()
        # Reference share is uniform.
        assert policy.decide(
            make_signals(BALANCED, "data-centric", 0), COSTS
        ).empty

        # Expert 0 takes 60% of tokens (> hot watermark 4/8) and the share
        # drift exceeds the deadband: replicate on the machine that fetches
        # it (machine 1 — machine 0 owns experts 0-3).
        hot = make_sig(share=self._share(0.6))
        decision = policy.decide(make_signals(hot, "data-centric", 1), COSTS)
        assert decision.replicate == [(BLOCK, 0, 1)]
        assert decision.replicas == {BLOCK: {0: (1,)}}

        # Cooling to 30% stays above the evict watermark (2/8): keep it.
        warm = make_sig(share=self._share(0.30))
        decision = policy.decide(make_signals(warm, "data-centric", 2), COSTS)
        assert decision.evict == [] and decision.replicate == []
        assert decision.replicas == {BLOCK: {0: (1,)}}

        # Fully cooled below the watermark: evict.
        cold = make_sig(share=self._share(0.10))
        decision = policy.decide(make_signals(cold, "data-centric", 3), COSTS)
        assert decision.evict == [(BLOCK, 0, 1)]
        assert decision.replicas == {}

    def test_non_replicable_strategy_gets_no_replicas(self):
        policy = self._policy()
        policy.decide(make_signals(BALANCED, "microbatch-ec", 0), COSTS)
        hot = make_sig(share=self._share(0.6))
        decision = policy.decide(
            make_signals(hot, "microbatch-ec", 1), COSTS
        )
        assert decision.replicate == []

    def test_budget_caps_entries(self):
        policy = self._policy(max_replicas=0)
        policy.decide(make_signals(BALANCED, "data-centric", 0), COSTS)
        hot = make_sig(share=self._share(0.6))
        decision = policy.decide(make_signals(hot, "data-centric", 1), COSTS)
        assert decision.replicate == []

    def test_adapt_replicas_off(self):
        policy = self._policy(adapt_replicas=False)
        policy.decide(make_signals(BALANCED, "data-centric", 0), COSTS)
        hot = make_sig(share=self._share(0.6))
        decision = policy.decide(make_signals(hot, "data-centric", 1), COSTS)
        assert decision.replicate == [] and decision.replicas == {}
