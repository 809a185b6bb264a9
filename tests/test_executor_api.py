"""API-contract tests for the MoE executors (inputs, state, errors)."""

import numpy as np
import pytest

from repro.runtime import (
    CommLog,
    DataCentricMoE,
    ExpertCentricMoE,
    RankLayout,
)
from repro.tensorlib import Tensor
from tests.helpers import pulled_expert_count, total_bytes

HIDDEN = 8


def tokens_for(layout, count=10, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Tensor(rng.standard_normal((count, HIDDEN)))
        for _ in range(layout.world_size)
    ]


class TestExecutorContracts:
    def test_wrong_worker_count_rejected(self):
        layout = RankLayout(2, 2)
        executor = ExpertCentricMoE(HIDDEN, 4, 2, layout)
        with pytest.raises(ValueError):
            executor.run(tokens_for(layout)[:-1])

    def test_cost_model_sizes(self):
        layout = RankLayout(2, 2)
        executor = DataCentricMoE(
            HIDDEN, 4, 2, layout, ffn_mult=4, dtype_bytes=2
        )
        assert executor.token_bytes == HIDDEN * 2
        assert executor.expert_bytes == 2 * HIDDEN * 4 * HIDDEN * 2

    def test_shared_comm_log_accumulates_across_executors(self):
        layout = RankLayout(2, 2)
        log = CommLog(layout)
        first = ExpertCentricMoE(HIDDEN, 4, 2, layout, comm_log=log)
        second = DataCentricMoE(HIDDEN, 4, 2, layout, comm_log=log)
        first.run(tokens_for(layout))
        before = total_bytes(log)
        second.run(tokens_for(layout))
        assert total_bytes(log) > before

    def test_export_import_state_round_trip(self):
        layout = RankLayout(2, 2)
        src = ExpertCentricMoE(
            HIDDEN, 4, 2, layout, rng=np.random.default_rng(1)
        )
        dst = ExpertCentricMoE(
            HIDDEN, 4, 2, layout, rng=np.random.default_rng(2)
        )
        dst.import_state(src.export_state())
        batch = tokens_for(layout, seed=5)
        for a, b in zip(src.run(batch), dst.run(batch)):
            np.testing.assert_allclose(a.numpy(), b.numpy())

    def test_import_state_shape_mismatch_rejected(self):
        layout = RankLayout(2, 2)
        src = ExpertCentricMoE(16, 4, 2, layout)
        dst = ExpertCentricMoE(HIDDEN, 4, 2, layout)
        with pytest.raises((KeyError, ValueError)):
            dst.import_state(src.export_state())

    def test_zero_grad_clears_everything(self):
        layout = RankLayout(2, 2)
        executor = ExpertCentricMoE(HIDDEN, 4, 2, layout)
        outputs = executor.run(tokens_for(layout))
        total = None
        for out in outputs:
            term = (out * out).sum()
            total = term if total is None else total + term
        total.backward()
        executor.finish_backward()
        assert any(p.grad is not None for p in executor.parameters())
        executor.zero_grad()
        assert all(p.grad is None for p in executor.parameters())

    def test_parameters_cover_gate_and_experts(self):
        layout = RankLayout(2, 2)
        executor = ExpertCentricMoE(HIDDEN, 4, 2, layout)
        # gate proj + 4 experts x (2 weights + 2 biases)
        assert len(executor.parameters()) == 1 + 4 * 4

    def test_pulled_expert_count_reflects_cache(self):
        layout = RankLayout(2, 2)
        executor = DataCentricMoE(HIDDEN, 4, 2, layout)
        batch = [
            Tensor(np.random.default_rng(0).standard_normal((64, HIDDEN)))
            for _ in range(4)
        ]
        executor.run(batch)
        # Every expert gets exactly one replica per machine (each machine
        # hosts a non-owner worker for every expert; the owner itself uses
        # the canonical module): 2 machines x 4 experts = 8.
        assert pulled_expert_count(executor) == 8


class TestGoodputParameters:
    def test_payload_scales_elapsed_not_goodput(self):
        from repro.netsim import measure_all_to_all_goodput

        small = measure_all_to_all_goodput(1, payload_bytes_per_pair=4e6)
        large = measure_all_to_all_goodput(1, payload_bytes_per_pair=16e6)
        assert large.elapsed_seconds > small.elapsed_seconds
        # Goodput converges with payload (latency amortized).
        assert large.goodput_gbps == pytest.approx(
            small.goodput_gbps, rel=0.2
        )
