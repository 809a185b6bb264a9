"""Tests for gate extensions: noisy top-k and capacity-factor dropping."""

import numpy as np
import pytest

from repro.models import MoELayer, TopKGate
from repro.tensorlib import Tensor
from tests.helpers import dropped_slots, tokens_per_expert

RNG = np.random.default_rng(5)


def tokens(n=40, hidden=8):
    return Tensor(RNG.standard_normal((n, hidden)))


class TestNoisyGate:
    def test_noise_changes_routing_sometimes(self):
        clean = TopKGate(8, 8, 2, rng=np.random.default_rng(1))
        noisy = TopKGate(8, 8, 2, rng=np.random.default_rng(1), noise_std=0.5)
        batch = tokens(200)
        clean_decision = clean(batch)
        noisy_decision = noisy(batch)
        assert not np.array_equal(
            clean_decision.expert_indices, noisy_decision.expert_indices
        )

    def test_noise_is_reproducible_per_gate_state(self):
        a = TopKGate(8, 4, 2, rng=np.random.default_rng(1), noise_std=0.3)
        b = TopKGate(8, 4, 2, rng=np.random.default_rng(1), noise_std=0.3)
        batch = tokens(50)
        np.testing.assert_array_equal(
            a(batch).expert_indices, b(batch).expert_indices
        )

    def test_zero_noise_matches_clean_gate(self):
        a = TopKGate(8, 4, 2, rng=np.random.default_rng(1), noise_std=0.0)
        b = TopKGate(8, 4, 2, rng=np.random.default_rng(1))
        batch = tokens(50)
        np.testing.assert_array_equal(
            a(batch).expert_indices, b(batch).expert_indices
        )

    def test_noise_does_not_affect_combine_weight_graph(self):
        gate = TopKGate(8, 4, 2, rng=np.random.default_rng(1), noise_std=0.5)
        decision = gate(tokens(20))
        decision.combine_weights.sum().backward()
        assert gate.proj.weight.grad is not None

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            TopKGate(8, 4, 2, noise_std=-0.1)


class TestCapacityFactor:
    def test_capacity_formula(self):
        gate = TopKGate(8, 4, 2, capacity_factor=1.0)
        # N=40 tokens, k=2 -> 80 slots over 4 experts = 20 each.
        assert gate.expert_capacity(40) == 20
        assert TopKGate(8, 4, 2).expert_capacity(40) is None

    def test_no_expert_exceeds_capacity(self):
        gate = TopKGate(8, 8, 2, rng=np.random.default_rng(1),
                        capacity_factor=1.0)
        decision = gate(tokens(100))
        capacity = gate.expert_capacity(100)
        assert tokens_per_expert(decision, 8).max() <= capacity

    def test_tight_capacity_drops_slots(self):
        gate = TopKGate(8, 8, 2, rng=np.random.default_rng(1),
                        capacity_factor=0.5)
        decision = gate(tokens(200))
        assert dropped_slots(decision) > 0
        capacity = gate.expert_capacity(200)
        assert tokens_per_expert(decision, 8).max() <= capacity

    def test_generous_capacity_drops_nothing(self):
        gate = TopKGate(8, 8, 2, rng=np.random.default_rng(1),
                        capacity_factor=8.0)
        decision = gate(tokens(100))
        assert dropped_slots(decision) == 0

    def test_earlier_tokens_win_slots(self):
        """Admission is by token order (GShard position-in-expert): the
        kept slots for each expert are a prefix of the slots that wanted
        it."""
        capped = TopKGate(8, 2, 1, rng=np.random.default_rng(1),
                          capacity_factor=0.5)
        uncapped = TopKGate(8, 2, 1, rng=np.random.default_rng(1))
        uncapped.load_state_dict(capped.state_dict())
        batch = tokens(40)
        kept = capped(batch).expert_indices.reshape(-1)
        wanted = uncapped(batch).expert_indices.reshape(-1)
        capacity = capped.expert_capacity(40)
        for expert in range(2):
            want_positions = np.flatnonzero(wanted == expert)
            kept_positions = np.flatnonzero(kept == expert)
            np.testing.assert_array_equal(
                kept_positions, want_positions[:capacity]
            )

    def test_surviving_weights_renormalized(self):
        gate = TopKGate(8, 8, 2, rng=np.random.default_rng(1),
                        capacity_factor=0.5)
        decision = gate(tokens(200))
        weights = decision.combine_weights.numpy()
        mask = decision.expert_indices >= 0
        # Dropped slots carry zero weight.
        assert np.allclose(weights[~mask], 0.0)
        # Rows with at least one survivor sum to 1.
        alive_rows = mask.any(axis=1)
        np.testing.assert_allclose(
            weights[alive_rows].sum(axis=1), 1.0, atol=1e-9
        )

    def test_moe_layer_works_with_dropping(self):
        layer = MoELayer(8, 4, 2, rng=np.random.default_rng(1))
        layer.gate.capacity_factor = 0.6
        x = Tensor(RNG.standard_normal((2, 30, 8)), requires_grad=True)
        out = layer(x)
        assert out.shape == (2, 30, 8)
        out.sum().backward()
        assert x.grad is not None
        assert dropped_slots(layer.last_decision) > 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TopKGate(8, 4, 2, capacity_factor=0)
