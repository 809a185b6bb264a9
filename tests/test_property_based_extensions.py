"""Property-based tests for the extension modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import r_grid
from repro.cluster import Cluster
from repro.config import ModelConfig
from repro.core import JanusFeatures, engine_for
from repro.core.tensor_parallel import plan_tensor_parallel
from repro.faults import FaultPlan, MessageLoss, ResilienceConfig
from repro.models import TopKGate
from repro.tensorlib import Tensor

from tests.helpers import tokens_per_expert
from tests.test_core_memory import (
    estimate_data_centric,
    estimate_expert_centric,
    estimate_mixed,
)


def moe_config(batch, seq, hidden, experts, k):
    return ModelConfig(
        name="prop", batch_size=batch, seq_len=seq, top_k=k,
        hidden_dim=hidden, num_blocks=2, experts_per_block={1: experts},
        num_heads=4,
    )


class TestMemoryModelProperties:
    @given(
        batch=st.sampled_from([8, 32, 128]),
        seq=st.sampled_from([64, 256, 1024]),
        hidden=st.sampled_from([64, 256, 768]),
    )
    @settings(max_examples=30)
    def test_mixed_estimate_bounds(self, batch, seq, hidden):
        """Mixed mode carries the DC fixed buffers plus a pro-rated share
        of the EC All-to-All buffers: at least pure-DC, and never more
        overhead than the two pure modes combined."""
        config = ModelConfig(
            name="m", batch_size=batch, seq_len=seq, top_k=2,
            hidden_dim=hidden, num_blocks=4,
            experts_per_block={1: 32, 3: 32}, num_heads=4,
        )
        ec = estimate_expert_centric(config, 32)
        dc = estimate_data_centric(config, 32)
        mixed = estimate_mixed(config, 32, 1, 1)
        assert mixed.total >= dc.total
        assert (
            mixed.paradigm_extra
            <= ec.paradigm_extra + dc.paradigm_extra + 1e-6
        )
        # The EC share is pro-rated: one of two blocks -> half the slack.
        assert mixed.paradigm_extra - dc.paradigm_extra == pytest.approx(
            ec.paradigm_extra / 2
        )

    @given(seq=st.sampled_from([64, 128, 256, 512, 1024]))
    @settings(max_examples=20)
    def test_ec_estimate_monotone_in_seq_len(self, seq):
        shorter = estimate_expert_centric(
            moe_config(32, seq, 256, 32, 2), 32
        ).total
        longer = estimate_expert_centric(
            moe_config(32, seq * 2, 256, 32, 2), 32
        ).total
        assert longer > shorter


class TestTensorParallelProperties:
    @given(tp=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=20)
    def test_aggregate_group_payload_invariant(self, tp):
        config = moe_config(64, 128, 256, 32, 2)
        plan = plan_tensor_parallel(config, 1, 4, 8, tp_degree=tp)
        # tp shards x shard size == one full expert, always.
        assert tp * plan.shard_bytes == pytest.approx(config.expert_bytes)
        # Experts per group x number of groups == total experts.
        assert plan.experts_per_group * (32 // tp) == 32


class TestGateProperties:
    @given(
        tokens=st.integers(4, 60),
        experts=st.sampled_from([2, 4, 8]),
        k=st.integers(1, 2),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_combine_weights_always_normalized(self, tokens, experts, k, seed):
        gate = TopKGate(8, experts, k, rng=np.random.default_rng(seed))
        decision = gate(
            Tensor(np.random.default_rng(seed + 1).standard_normal((tokens, 8)))
        )
        weights = decision.combine_weights.numpy()
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
        assert (weights >= 0).all()

    @given(
        factor=st.floats(0.25, 2.0),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=30, deadline=None)
    def test_capacity_bound_always_respected(self, factor, seed):
        gate = TopKGate(
            8, 4, 2, rng=np.random.default_rng(seed), capacity_factor=factor
        )
        decision = gate(
            Tensor(np.random.default_rng(seed).standard_normal((40, 8)))
        )
        assert tokens_per_expert(decision, 4).max() <= gate.expert_capacity(40)


class TestCreditDiscipline:
    @given(
        credit_size=st.sampled_from([1, 2, 4, 16]),
        rate=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=15, deadline=None)
    def test_credits_conserved_under_pull_loss(self, credit_size, rate, seed):
        """§5.1.1 credit discipline survives fault injection: in-flight
        fetches never exceed C (the credit Container can never go
        negative), and every credit is back in the pool once the
        iteration completes — whether pulls succeeded, were retried, or
        fell back to stale copies."""
        config = moe_config(8, 32, 64, 16, 2)
        cluster = Cluster(2)
        plan = FaultPlan(
            seed=seed,
            faults=(MessageLoss(kinds=("pull-request",), rate=rate),),
        )
        engine = engine_for(
            "data-centric", config, cluster,
            features=JanusFeatures(credit_size=credit_size),
            check_memory=False,
            fault_plan=plan, resilience=ResilienceConfig(),
        )
        result = engine.run_iteration()
        # All credits released: every worker's pool is full again.
        assert set(result.credit_levels.values()) == {credit_size}
        # In-flight <= C throughout: the pool never went negative.
        assert all(
            0 <= level <= credit_size
            for level in result.credit_min_levels.values()
        )


class TestSweepProperties:
    @given(
        hidden=st.sampled_from([128, 256, 1024]),
        experts=st.integers(1, 8),
        machines=st.integers(2, 8),
    )
    @settings(max_examples=30)
    def test_grid_positive_and_monotone(self, hidden, experts, machines):
        batches = [8, 64, 512]
        seqs = [32, 256, 2048]
        grid = r_grid(batches, seqs, 2, machines, hidden, experts)
        assert (grid > 0).all()
        assert (np.diff(grid, axis=0) > 0).all()
        assert (np.diff(grid, axis=1) > 0).all()
