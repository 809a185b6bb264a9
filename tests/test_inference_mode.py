"""Tests for forward-only (inference/serving) simulation — paper §9."""

import pytest

from repro.cluster import Cluster, MachineSpec
from repro.config import ModelConfig
from repro.core import engine_for


def config(**overrides):
    defaults = dict(
        name="infer", batch_size=32, seq_len=32, top_k=2, hidden_dim=64,
        num_blocks=4, experts_per_block={1: 4, 3: 4}, num_heads=4,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def cluster():
    return Cluster(2, MachineSpec(num_gpus=2))


class TestInferenceMode:
    def test_inference_is_faster_than_training(self):
        for mode in ("expert-centric", "data-centric"):
            engine = engine_for(mode, config(), cluster())
            training = engine.run_iteration()
            inference = engine.run_inference()
            assert inference.seconds < training.seconds

    def test_dc_inference_has_no_gradient_traffic(self):
        engine = engine_for("data-centric", config(), cluster())
        workload = engine.workload
        inference = engine.run_inference()
        # Cross-node traffic is exactly the forward expert pulls: one per
        # (machine, external expert, MoE block) — no grad_push half.
        expected = 2 * 2 * 2 * workload.expert_bytes
        assert inference.nic_egress_bytes.sum() == pytest.approx(expected)

    def test_dc_inference_traffic_is_half_of_training(self):
        engine = engine_for("data-centric", config(), cluster())
        training = engine.run_iteration()
        inference = engine.run_inference()
        assert inference.nic_egress_bytes.sum() == pytest.approx(
            training.nic_egress_bytes.sum() / 2
        )

    def test_ec_inference_runs_half_the_all_to_alls(self):
        engine = engine_for("expert-centric", config(), cluster())
        training = engine.run_iteration()
        inference = engine.run_inference()
        assert (
            len(inference.trace.spans_of("comm.a2a"))
            == len(training.trace.spans_of("comm.a2a")) / 2
        )

    def test_inference_deterministic(self):
        engine = engine_for("data-centric", config(), cluster())
        assert engine.run_inference().seconds == engine.run_inference().seconds

    def test_training_after_inference_unaffected(self):
        engine = engine_for("data-centric", config(), cluster())
        before = engine.run_iteration().seconds
        engine.run_inference()
        after = engine.run_iteration().seconds
        assert before == after
