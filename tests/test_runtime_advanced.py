"""Advanced runtime scenarios: capacity gating, mixed paradigms, edge shapes."""

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
from tests.helpers import dropped_slots, total_bytes

HIDDEN = 16


def make_pair(layout, num_experts=8, top_k=2, capacity_factor=None):
    ec = ExpertCentricMoE(
        HIDDEN, num_experts, top_k, layout, rng=np.random.default_rng(1)
    )
    dc = DataCentricMoE(
        HIDDEN, num_experts, top_k, layout, rng=np.random.default_rng(2)
    )
    dc.import_state(ec.export_state())
    if capacity_factor is not None:
        ec.gate.capacity_factor = capacity_factor
        dc.gate.capacity_factor = capacity_factor
    return ec, dc


def worker_tokens(layout, count=32, seed=9):
    rng = np.random.default_rng(seed)
    return [
        Tensor(rng.standard_normal((count, HIDDEN)))
        for _ in range(layout.world_size)
    ]


def run_loss(executor, tokens):
    outputs = executor.run(tokens)
    loss = None
    for out in outputs:
        term = (out * out).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    executor.finish_backward()
    return outputs


class TestCapacityGatedEquivalence:
    def test_outputs_match_under_token_dropping(self):
        layout = RankLayout(2, 2)
        ec, dc = make_pair(layout, capacity_factor=0.5)
        ec_out = run_loss(ec, worker_tokens(layout, count=64))
        dc_out = run_loss(dc, worker_tokens(layout, count=64))
        # Dropping actually happened.
        assert any(
            dropped_slots(decision) > 0 for decision in ec.last_decisions
        )
        for a, b in zip(ec_out, dc_out):
            np.testing.assert_allclose(a.numpy(), b.numpy(), atol=1e-10)

    def test_gradients_match_under_token_dropping(self):
        layout = RankLayout(2, 2)
        ec, dc = make_pair(layout, capacity_factor=0.5)
        run_loss(ec, worker_tokens(layout, count=64))
        run_loss(dc, worker_tokens(layout, count=64))
        for expert_a, expert_b in zip(ec.experts, dc.experts):
            for pa, pb in zip(expert_a.parameters(), expert_b.parameters()):
                if pa.grad is None:
                    assert pb.grad is None
                else:
                    np.testing.assert_allclose(pa.grad, pb.grad, atol=1e-9)

    def test_dropping_reduces_ec_dispatch_traffic(self):
        layout = RankLayout(2, 2)
        full_ec, _ = make_pair(layout)
        capped_ec, _ = make_pair(layout, capacity_factor=0.5)
        run_loss(full_ec, worker_tokens(layout, count=64))
        run_loss(capped_ec, worker_tokens(layout, count=64))
        assert (
            total_bytes(capped_ec.comm_log, ["dispatch"])
            < total_bytes(full_ec.comm_log, ["dispatch"])
        )


class TestSingleMachineEdge:
    def test_dc_has_zero_cross_machine_traffic(self):
        layout = RankLayout(1, 4)
        ec, dc = make_pair(layout)
        run_loss(dc, worker_tokens(layout))
        assert dc.comm_log.cross_machine_bytes() == 0
        assert total_bytes(dc.comm_log) > 0  # NVLink pulls happened

    def test_single_worker_is_fully_local(self):
        layout = RankLayout(1, 1)
        ec, dc = make_pair(layout, num_experts=4)
        ec_out = run_loss(ec, worker_tokens(layout))
        dc_out = run_loss(dc, worker_tokens(layout))
        assert total_bytes(ec.comm_log) == 0
        assert total_bytes(dc.comm_log) == 0
        np.testing.assert_allclose(
            ec_out[0].numpy(), dc_out[0].numpy(), atol=1e-10
        )


class TestMixedParadigmModel:
    def mixed_config(self):
        return ModelConfig(
            name="mixed", batch_size=2, seq_len=6, top_k=2, hidden_dim=16,
            num_blocks=4, experts_per_block={1: 4, 3: 8}, num_heads=4,
            vocab_size=40, causal=True,
        )

    def test_mixed_paradigms_match_pure_expert_centric(self):
        from repro.models import MoETransformer

        config = self.mixed_config()
        layout = RankLayout(2, 2)
        reference = MoETransformer(config, rng=np.random.default_rng(7))

        mixed = DistributedMoETransformer(
            config, layout,
            paradigm_for_block={1: "data-centric", 3: "expert-centric"},
            rng=np.random.default_rng(1),
        )
        pure = DistributedMoETransformer(
            config, layout,
            paradigm_for_block={1: "expert-centric", 3: "expert-centric"},
            rng=np.random.default_rng(2),
        )
        mixed.load_from_reference(reference)
        pure.load_from_reference(reference)

        rng = np.random.default_rng(3)
        batches = [rng.integers(0, 40, size=(2, 6)) for _ in range(4)]
        targets = [rng.integers(0, 40, size=(2, 6)) for _ in range(4)]

        loss_mixed = mixed.loss(batches, targets)
        loss_mixed.backward()
        mixed.finish_backward()
        loss_pure = pure.loss(batches, targets)
        loss_pure.backward()
        pure.finish_backward()

        assert loss_mixed.item() == pytest.approx(loss_pure.item(), abs=1e-10)
        for pa, pb in zip(mixed.parameters(), pure.parameters()):
            if pa.grad is not None:
                np.testing.assert_allclose(pa.grad, pb.grad, atol=1e-8)

    def test_mixed_traffic_is_between_pure_modes(self):
        config = self.mixed_config().scaled(batch_size=8, seq_len=16)
        layout = RankLayout(2, 2)
        logs = {}
        for name, mapping in (
            ("ec", {1: "expert-centric", 3: "expert-centric"}),
            ("dc", {1: "data-centric", 3: "data-centric"}),
            ("mixed", {1: "data-centric", 3: "expert-centric"}),
        ):
            model = DistributedMoETransformer(
                config, layout, paradigm_for_block=mapping,
                rng=np.random.default_rng(1),
            )
            rng = np.random.default_rng(3)
            batches = [rng.integers(0, 40, size=(8, 16)) for _ in range(4)]
            targets = [rng.integers(0, 40, size=(8, 16)) for _ in range(4)]
            model.loss(batches, targets).backward()
            model.finish_backward()
            logs[name] = model.comm_log.cross_machine_bytes()
        low, high = sorted((logs["ec"], logs["dc"]))
        assert low <= logs["mixed"] <= high


class TestEngineStragglerAndJitter:
    def make_engine(self, **kwargs):
        from repro.cluster import Cluster, MachineSpec
        from repro.core import JanusEngine, build_workload

        config = ModelConfig(
            name="s", batch_size=128, seq_len=64, top_k=2, hidden_dim=64,
            num_blocks=3, experts_per_block={1: 4}, num_heads=4,
        )
        cluster = Cluster(2, MachineSpec(num_gpus=2))
        workload = build_workload(config, cluster)
        return JanusEngine(
            cluster, workload,
            {1: "expert-centric"},
            **kwargs,
        )

    def test_straggler_slows_iteration(self):
        nominal = self.make_engine().run_iteration().seconds
        slowed = self.make_engine(
            machine_speed={0: 0.5}
        ).run_iteration().seconds
        assert slowed > nominal * 1.15

    def test_straggler_validation(self):
        with pytest.raises(ValueError):
            self.make_engine(machine_speed={5: 0.5})
        with pytest.raises(ValueError):
            self.make_engine(machine_speed={0: 0})

    def test_jitter_is_deterministic_per_seed(self):
        a = self.make_engine(compute_jitter=0.3, jitter_seed=1)
        b = self.make_engine(compute_jitter=0.3, jitter_seed=1)
        assert a.run_iteration().seconds == b.run_iteration().seconds

    def test_jitter_seed_changes_outcome(self):
        a = self.make_engine(compute_jitter=0.3, jitter_seed=1)
        b = self.make_engine(compute_jitter=0.3, jitter_seed=2)
        assert a.run_iteration().seconds != b.run_iteration().seconds

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            self.make_engine(compute_jitter=-0.1)
