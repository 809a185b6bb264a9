"""Tests for the functional model zoo: attention, gate, MoE layer, model."""

import numpy as np
import pytest

from repro.models import (
    Expert,
    MoELayer,
    MoETransformer,
    MultiHeadAttention,
    TopKGate,
    TransformerBlock,
)
from repro.models.flops import (
    attention_flops,
    dense_ffn_flops,
    expert_flops_per_token,
    gate_flops,
)
from repro.tensorlib import Tensor

RNG = np.random.default_rng(3)


from tests.conftest import tiny_model_config as tiny_config  # noqa: E402
from tests.helpers import tokens_per_expert


class TestAttention:
    def test_output_shape(self):
        attn = MultiHeadAttention(16, 4, rng=RNG)
        x = Tensor(RNG.standard_normal((2, 5, 16)))
        assert attn(x).shape == (2, 5, 16)

    def test_causal_mask_blocks_future(self):
        attn = MultiHeadAttention(8, 2, causal=True, rng=RNG)
        x = RNG.standard_normal((1, 6, 8))
        base = attn(Tensor(x)).numpy()
        perturbed = x.copy()
        perturbed[0, 5] += 10.0  # change only the last position
        out = attn(Tensor(perturbed)).numpy()
        np.testing.assert_allclose(out[0, :5], base[0, :5], atol=1e-10)
        assert not np.allclose(out[0, 5], base[0, 5])

    def test_non_causal_attends_everywhere(self):
        attn = MultiHeadAttention(8, 2, causal=False, rng=RNG)
        x = RNG.standard_normal((1, 4, 8))
        base = attn(Tensor(x)).numpy()
        perturbed = x.copy()
        perturbed[0, 3] += 10.0
        out = attn(Tensor(perturbed)).numpy()
        assert not np.allclose(out[0, 0], base[0, 0])

    def test_gradients_flow(self):
        attn = MultiHeadAttention(8, 2, rng=RNG)
        x = Tensor(RNG.standard_normal((1, 3, 8)), requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None
        assert attn.qkv.weight.grad is not None

    def test_bad_hidden_dim_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 4)
        attn = MultiHeadAttention(8, 2, rng=RNG)
        with pytest.raises(ValueError):
            attn(Tensor(RNG.standard_normal((1, 3, 16))))


class TestGate:
    def test_topk_selection_matches_numpy(self):
        gate = TopKGate(8, 6, 2, rng=RNG)
        tokens = Tensor(RNG.standard_normal((10, 8)))
        decision = gate(tokens)
        probs = decision.probs.numpy()
        for i in range(10):
            top = set(np.argsort(-probs[i])[:2])
            assert set(decision.expert_indices[i]) == top

    def test_combine_weights_rows_sum_to_one(self):
        gate = TopKGate(8, 6, 3, rng=RNG)
        decision = gate(Tensor(RNG.standard_normal((7, 8))))
        np.testing.assert_allclose(
            decision.combine_weights.numpy().sum(axis=1), np.ones(7)
        )

    def test_top1_weights_are_all_one(self):
        gate = TopKGate(8, 4, 1, rng=RNG)
        decision = gate(Tensor(RNG.standard_normal((5, 8))))
        np.testing.assert_allclose(decision.combine_weights.numpy(), 1.0)

    def test_tokens_per_expert_histogram(self):
        gate = TopKGate(8, 4, 2, rng=RNG)
        decision = gate(Tensor(RNG.standard_normal((20, 8))))
        hist = tokens_per_expert(decision, 4)
        assert hist.sum() == 40  # 20 tokens x k=2 slots
        assert hist.shape == (4,)

    def test_dispatch_plan_segments_consistent(self):
        gate = TopKGate(8, 4, 2, rng=RNG)
        decision = gate(Tensor(RNG.standard_normal((15, 8))))
        plan = decision.dispatch_plan()
        bounds = [plan.segment_bounds(e) for e in range(4)]
        total = sum(stop - start for start, stop in bounds)
        assert total == 30

    def test_aux_loss_is_scalar_and_at_least_one(self):
        # E * sum f_e P_e >= 1 with equality at perfect balance.
        gate = TopKGate(8, 4, 2, rng=RNG)
        decision = gate(Tensor(RNG.standard_normal((50, 8))))
        assert decision.aux_loss.size == 1
        assert decision.aux_loss.item() >= 0.99

    def test_gate_is_differentiable(self):
        gate = TopKGate(8, 4, 2, rng=RNG)
        decision = gate(Tensor(RNG.standard_normal((5, 8))))
        decision.combine_weights.sum().backward()
        assert gate.proj.weight.grad is not None

    def test_bad_topk_rejected(self):
        with pytest.raises(ValueError):
            TopKGate(8, 4, 5)
        with pytest.raises(ValueError):
            TopKGate(8, 4, 0)

    def test_bad_token_shape_rejected(self):
        gate = TopKGate(8, 4, 2, rng=RNG)
        with pytest.raises(ValueError):
            gate(Tensor(RNG.standard_normal((5, 7))))


class TestExpert:
    def test_weight_export_import_round_trip(self):
        src = Expert(8, rng=RNG)
        dst = Expert(8, rng=np.random.default_rng(77))
        dst.load_state_dict(src.state_dict())
        x = Tensor(RNG.standard_normal((3, 8)))
        np.testing.assert_allclose(src(x).numpy(), dst(x).numpy())

    def test_collect_gradients_zero_when_unused(self):
        expert = Expert(8, rng=RNG)
        grads = expert.collect_gradients()
        assert all(np.all(g == 0) for g in grads.values())

    def test_apply_gradients_accumulates(self):
        expert = Expert(8, rng=RNG)
        ones = {name: np.ones_like(p.data) for name, p in expert.named_parameters()}
        expert.apply_gradients(ones)
        expert.apply_gradients(ones)
        for _, param in expert.named_parameters():
            np.testing.assert_allclose(param.grad, 2.0)

    def test_apply_gradients_validates_keys(self):
        expert = Expert(8, rng=RNG)
        with pytest.raises(KeyError):
            expert.apply_gradients({"bogus": np.zeros(1)})


class TestMoELayer:
    def test_output_shape(self):
        layer = MoELayer(16, 4, 2, rng=RNG)
        x = Tensor(RNG.standard_normal((2, 5, 16)))
        assert layer(x).shape == (2, 5, 16)

    def test_single_expert_topk1_equals_plain_ffn(self):
        layer = MoELayer(8, 1, 1, rng=RNG)
        x = Tensor(RNG.standard_normal((1, 4, 8)))
        expected = layer.experts[0](x.reshape(4, 8)).numpy()
        np.testing.assert_allclose(layer(x).numpy().reshape(4, 8), expected)

    def test_all_experts_receive_gradients_when_used(self):
        layer = MoELayer(8, 2, 2, rng=RNG)  # top-2 of 2: all experts used
        x = Tensor(RNG.standard_normal((2, 6, 8)), requires_grad=True)
        layer(x).sum().backward()
        for expert in layer.experts:
            assert expert.fc1.weight.grad is not None

    def test_decision_recorded(self):
        layer = MoELayer(8, 4, 2, rng=RNG)
        layer(Tensor(RNG.standard_normal((1, 3, 8))))
        assert layer.last_decision is not None
        assert layer.last_decision.num_tokens == 3


class TestTransformer:
    def test_dense_block_shape_and_grads(self):
        block = TransformerBlock(16, 4, rng=RNG)
        x = Tensor(RNG.standard_normal((2, 5, 16)), requires_grad=True)
        out = block(x)
        assert out.shape == (2, 5, 16)
        out.sum().backward()
        assert x.grad is not None

    def test_model_forward_logits_shape(self):
        config = tiny_config()
        model = MoETransformer(config, rng=RNG)
        tokens = RNG.integers(0, config.vocab_size, size=(2, 6))
        logits = model(tokens)
        assert logits.shape == (2, 6, config.vocab_size)

    def test_model_block_layout_follows_config(self):
        config = tiny_config()
        model = MoETransformer(config, rng=RNG)
        from repro.models import MoEBlock

        kinds = [isinstance(b, MoEBlock) for b in model.blocks]
        assert kinds == [False, True, False]

    def test_training_step_decreases_loss(self):
        from repro.tensorlib import Adam

        config = tiny_config()
        model = MoETransformer(config, rng=RNG)
        tokens = RNG.integers(0, config.vocab_size, size=(2, 6))
        targets = RNG.integers(0, config.vocab_size, size=(2, 6))
        optimizer = Adam(model.parameters(), lr=1e-2)
        first = None
        for _ in range(8):
            optimizer.zero_grad()
            loss = model.loss(tokens, targets)
            if first is None:
                first = loss.item()
            loss.backward()
            optimizer.step()
        final = model.loss(tokens, targets).item()
        assert final < first

    def test_moe_blocks_accessor(self):
        model = MoETransformer(tiny_config(), rng=RNG)
        assert len(model.moe_blocks()) == 1


class TestFlops:
    def test_attention_flops_positive_and_quadratic_in_seq(self):
        short = attention_flops(1, 128, 64)
        long = attention_flops(1, 256, 64)
        assert long > 2 * short  # superlinear due to the S^2 terms

    def test_ffn_flops_formula(self):
        assert dense_ffn_flops(2, 3, 4, mult=4) == 2 * 2 * 2 * 3 * 4 * 16

    def test_expert_flops_per_token(self):
        assert expert_flops_per_token(256) == 4 * 256 * 4 * 256

    def test_gate_flops_scales_with_experts(self):
        assert gate_flops(1, 10, 8, 32) == 2 * gate_flops(1, 10, 8, 16)
