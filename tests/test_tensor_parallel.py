"""Tests for the §9 tensor-parallel sharding analysis."""

import pytest

from repro.config import moe_bert, moe_transformer_xl
from repro.core.tensor_parallel import plan_tensor_parallel


class TestTensorParallelPlan:
    def test_tp1_matches_base_analysis(self):
        config = moe_transformer_xl(32)
        plan = plan_tensor_parallel(config, 0, 4, 8, tp_degree=1)
        assert plan.base_ratio == pytest.approx(16.0)
        assert plan.effective_ratio == pytest.approx(16.0)
        assert plan.shard_bytes == config.expert_bytes

    def test_tp_shrinks_shard_and_grows_ratio(self):
        config = moe_transformer_xl(32)
        # With tp=4 there are 8 EP groups, so E=4 per group.
        plan = plan_tensor_parallel(config, 0, 4, 8, tp_degree=4)
        assert plan.experts_per_group == 4
        assert plan.shard_bytes == config.expert_bytes / 4
        # base R with E=4 is 16/4 = 4; effective = 4 * tp = 16.
        assert plan.base_ratio == pytest.approx(4.0)
        assert plan.effective_ratio == pytest.approx(16.0)

    def test_effective_ratio_invariant_under_tp(self):
        """The module's analytical result: TP shrinks shards and grows E
        per group by the same factor, so the paradigm choice is invariant
        in tp_degree."""
        config = moe_bert(32)
        plans = [
            plan_tensor_parallel(config, 1, 4, 8, tp_degree=tp)
            for tp in (1, 2, 4, 8)
        ]
        ratios = [plan.effective_ratio for plan in plans]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)
        assert len({plan.paradigm for plan in plans}) == 1
        # While the per-pull granularity shrinks monotonically.
        shards = [plan.shard_bytes for plan in plans]
        assert shards == sorted(shards, reverse=True)

    def test_threshold_respected(self):
        config = moe_transformer_xl(32)
        plan = plan_tensor_parallel(config, 0, 4, 8, tp_degree=1, threshold=20)
        assert plan.paradigm == "expert-centric"

    def test_invalid_tp_rejected(self):
        config = moe_transformer_xl(32)
        with pytest.raises(ValueError):
            plan_tensor_parallel(config, 0, 4, 8, tp_degree=0)
        with pytest.raises(ValueError):
            plan_tensor_parallel(config, 0, 4, 8, tp_degree=5)  # 32 % 5 != 0

    def test_uneven_expert_split_rejected(self):
        config = moe_transformer_xl(16)  # 16 experts
        with pytest.raises(ValueError):
            # tp=1 -> 32 EP groups > 16 experts.
            plan_tensor_parallel(config, 0, 4, 8, tp_degree=1)
