"""Equivalence of the expert-centric and data-centric paradigms.

The paper's correctness claim (§3.2): "the computation result in
expert-centric paradigm is strictly equivalent to the results in
data-centric paradigm ... data-centric paradigm does not affect the
convergence of training and model accuracy."  These tests verify it with
real numerics: same weights, same tokens -> same outputs, same gradients on
every parameter, under both executors and at full-model scale.
"""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.runtime import (
    DataCentricMoE,
    DistributedMoETransformer,
    ExpertCentricMoE,
    RankLayout,
)
from repro.tensorlib import Tensor

RNG = np.random.default_rng(42)

HIDDEN = 16
EXPERTS = 8
TOP_K = 2


def make_pair(layout, top_k=TOP_K, num_experts=EXPERTS):
    """Two executors with identical weights."""
    ec = ExpertCentricMoE(
        HIDDEN, num_experts, top_k, layout, rng=np.random.default_rng(1)
    )
    dc = DataCentricMoE(
        HIDDEN, num_experts, top_k, layout, rng=np.random.default_rng(2)
    )
    dc.import_state(ec.export_state())
    return ec, dc


def worker_tokens(layout, tokens_per_worker=24, requires_grad=False):
    rng = np.random.default_rng(9)
    return [
        Tensor(
            rng.standard_normal((tokens_per_worker, HIDDEN)),
            requires_grad=requires_grad,
        )
        for _ in range(layout.world_size)
    ]


def total_loss(outputs):
    loss = None
    for out in outputs:
        term = (out * out).sum()
        loss = term if loss is None else loss + term
    return loss


class TestForwardEquivalence:
    @pytest.mark.parametrize("machines,workers", [(2, 2), (2, 4), (4, 2)])
    def test_outputs_match(self, machines, workers):
        layout = RankLayout(machines, workers)
        ec, dc = make_pair(layout)
        tokens = worker_tokens(layout)
        ec_out = ec.run(tokens)
        dc_out = dc.run(tokens)
        for a, b in zip(ec_out, dc_out):
            np.testing.assert_allclose(a.numpy(), b.numpy(), atol=1e-10)

    def test_outputs_match_top1(self):
        layout = RankLayout(2, 2)
        ec, dc = make_pair(layout, top_k=1)
        tokens = worker_tokens(layout)
        for a, b in zip(ec.run(tokens), dc.run(tokens)):
            np.testing.assert_allclose(a.numpy(), b.numpy(), atol=1e-10)

    def test_outputs_match_multiple_experts_per_worker(self):
        layout = RankLayout(2, 2)
        ec, dc = make_pair(layout, num_experts=16)  # E = 4 per worker
        tokens = worker_tokens(layout)
        for a, b in zip(ec.run(tokens), dc.run(tokens)):
            np.testing.assert_allclose(a.numpy(), b.numpy(), atol=1e-10)

    def test_gate_decisions_identical(self):
        layout = RankLayout(2, 2)
        ec, dc = make_pair(layout)
        tokens = worker_tokens(layout)
        ec.run(tokens)
        dc.run(tokens)
        for dec_a, dec_b in zip(ec.last_decisions, dc.last_decisions):
            np.testing.assert_array_equal(
                dec_a.expert_indices, dec_b.expert_indices
            )


class TestBackwardEquivalence:
    def test_expert_gradients_match(self):
        layout = RankLayout(2, 2)
        ec, dc = make_pair(layout)
        tokens_ec = worker_tokens(layout)
        tokens_dc = worker_tokens(layout)

        total_loss(ec.run(tokens_ec)).backward()
        ec.finish_backward()
        total_loss(dc.run(tokens_dc)).backward()
        dc.finish_backward()

        for expert_a, expert_b in zip(ec.experts, dc.experts):
            for (name, param_a), (_, param_b) in zip(
                expert_a.named_parameters(), expert_b.named_parameters()
            ):
                assert param_a.grad is not None, f"no EC grad for {name}"
                assert param_b.grad is not None, f"no DC grad for {name}"
                np.testing.assert_allclose(
                    param_a.grad, param_b.grad, atol=1e-9,
                    err_msg=f"gradient mismatch on expert param {name}",
                )

    def test_gate_gradients_match(self):
        layout = RankLayout(2, 2)
        ec, dc = make_pair(layout)
        total_loss(ec.run(worker_tokens(layout))).backward()
        ec.finish_backward()
        total_loss(dc.run(worker_tokens(layout))).backward()
        dc.finish_backward()
        np.testing.assert_allclose(
            ec.gate.proj.weight.grad, dc.gate.proj.weight.grad, atol=1e-9
        )

    def test_token_gradients_match(self):
        layout = RankLayout(2, 2)
        ec, dc = make_pair(layout)
        tokens_ec = worker_tokens(layout, requires_grad=True)
        tokens_dc = worker_tokens(layout, requires_grad=True)
        total_loss(ec.run(tokens_ec)).backward()
        ec.finish_backward()
        total_loss(dc.run(tokens_dc)).backward()
        dc.finish_backward()
        for a, b in zip(tokens_ec, tokens_dc):
            np.testing.assert_allclose(a.grad, b.grad, atol=1e-9)

    def test_finish_backward_twice_rejected(self):
        layout = RankLayout(2, 2)
        ec, dc = make_pair(layout)
        total_loss(ec.run(worker_tokens(layout))).backward()
        ec.finish_backward()
        with pytest.raises(RuntimeError):
            ec.finish_backward()
        total_loss(dc.run(worker_tokens(layout))).backward()
        dc.finish_backward()
        with pytest.raises(RuntimeError):
            dc.finish_backward()


class TestTrainingEquivalence:
    def test_sgd_trajectories_identical(self):
        """Several optimizer steps under each paradigm stay in lockstep."""
        from tests.helpers import SGD

        layout = RankLayout(2, 2)
        ec, dc = make_pair(layout)
        opt_ec = SGD(ec.parameters(), lr=0.05)
        opt_dc = SGD(dc.parameters(), lr=0.05)
        for step in range(3):
            rng = np.random.default_rng(100 + step)
            batches = [
                rng.standard_normal((12, HIDDEN))
                for _ in range(layout.world_size)
            ]
            opt_ec.zero_grad()
            total_loss(ec.run([Tensor(b) for b in batches])).backward()
            ec.finish_backward()
            opt_ec.step()

            opt_dc.zero_grad()
            total_loss(dc.run([Tensor(b) for b in batches])).backward()
            dc.finish_backward()
            opt_dc.step()

        for param_a, param_b in zip(ec.parameters(), dc.parameters()):
            np.testing.assert_allclose(param_a.data, param_b.data, atol=1e-9)


def tiny_model_config():
    return ModelConfig(
        name="tiny",
        batch_size=3,
        seq_len=4,
        top_k=2,
        hidden_dim=16,
        num_blocks=3,
        experts_per_block={1: 4},
        num_heads=4,
        vocab_size=40,
        causal=True,
    )


class TestFullModelEquivalence:
    def test_distributed_logits_match_across_paradigms(self):
        config = tiny_model_config()
        layout = RankLayout(2, 2)
        model_ec = DistributedMoETransformer(
            config, layout, paradigm_for_block={1: "expert-centric"},
            rng=np.random.default_rng(5),
        )
        model_dc = DistributedMoETransformer(
            config, layout, paradigm_for_block={1: "data-centric"},
            rng=np.random.default_rng(6),
        )
        from repro.models import MoETransformer

        reference = MoETransformer(config, rng=np.random.default_rng(7))
        model_ec.load_from_reference(reference)
        model_dc.load_from_reference(reference)

        rng = np.random.default_rng(8)
        batches = [
            rng.integers(0, config.vocab_size, size=(3, 4)) for _ in range(4)
        ]
        logits_ec = model_ec.forward(batches)
        logits_dc = model_dc.forward(batches)
        for a, b in zip(logits_ec, logits_dc):
            np.testing.assert_allclose(a.numpy(), b.numpy(), atol=1e-9)

    def test_distributed_matches_single_process_reference(self):
        config = tiny_model_config()
        layout = RankLayout(2, 2)
        from repro.models import MoETransformer

        reference = MoETransformer(config, rng=np.random.default_rng(7))
        distributed = DistributedMoETransformer(
            config, layout, paradigm_for_block={1: "data-centric"},
            rng=np.random.default_rng(9),
        )
        distributed.load_from_reference(reference)

        rng = np.random.default_rng(8)
        batches = [
            rng.integers(0, config.vocab_size, size=(3, 4)) for _ in range(4)
        ]
        dist_logits = distributed.forward(batches)
        for batch, logits in zip(batches, dist_logits):
            np.testing.assert_allclose(
                reference(batch).numpy(), logits.numpy(), atol=1e-9
            )

    def test_full_model_gradients_match_across_paradigms(self):
        config = tiny_model_config()
        layout = RankLayout(2, 2)
        from repro.models import MoETransformer

        reference = MoETransformer(config, rng=np.random.default_rng(7))
        models = {}
        for paradigm in ("expert-centric", "data-centric"):
            model = DistributedMoETransformer(
                config, layout, paradigm_for_block={1: paradigm},
                rng=np.random.default_rng(3),
            )
            model.load_from_reference(reference)
            rng = np.random.default_rng(8)
            batches = [
                rng.integers(0, config.vocab_size, size=(3, 4))
                for _ in range(4)
            ]
            targets = [
                rng.integers(0, config.vocab_size, size=(3, 4))
                for _ in range(4)
            ]
            loss = model.loss(batches, targets)
            loss.backward()
            model.finish_backward()
            models[paradigm] = model

        grads_ec = [p.grad for p in models["expert-centric"].parameters()]
        grads_dc = [p.grad for p in models["data-centric"].parameters()]
        assert len(grads_ec) == len(grads_dc)
        for grad_a, grad_b in zip(grads_ec, grads_dc):
            assert (grad_a is None) == (grad_b is None)
            if grad_a is not None:
                np.testing.assert_allclose(grad_a, grad_b, atol=1e-8)

    def test_world_size_mismatch_rejected(self):
        config = tiny_model_config()
        model = DistributedMoETransformer(config, RankLayout(2, 2))
        with pytest.raises(ValueError):
            model.forward([np.zeros((2, 4), dtype=int)] * 3)

    def test_unknown_paradigm_rejected(self):
        config = tiny_model_config()
        with pytest.raises(ValueError):
            DistributedMoETransformer(
                config, RankLayout(2, 2),
                paradigm_for_block={1: "token-centric"},
            )
