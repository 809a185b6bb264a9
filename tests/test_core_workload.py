"""Tests for workload construction and the synthetic routing generators."""

import numpy as np
import pytest

from repro.cluster import Cluster, MachineSpec
from repro.config import moe_bert
from repro.core import build_workload
from repro.workloads import (
    assignment_imbalance,
    balanced_assignment,
    zipf_weights,
)


from tests.conftest import small_config as _small_config  # noqa: E402


def small_config():
    return _small_config(
        batch_size=8, seq_len=16, experts_per_block={1: 8, 3: 8}
    )


class TestAssignments:
    def test_balanced_splits_evenly(self):
        counts = balanced_assignment(100, 4)
        assert counts.sum() == 100
        assert counts.max() - counts.min() <= 1

    def test_balanced_with_remainder(self):
        counts = balanced_assignment(10, 4)
        assert sorted(counts) == [2, 2, 3, 3]

    def test_zipf_concentrates_load(self):
        rng = np.random.default_rng(0)
        skewed = rng.multinomial(100000, zipf_weights(16, 1.5, rng=rng))
        assert skewed.sum() == 100000
        assert assignment_imbalance(skewed) > 2.0

    def test_zero_skew_is_roughly_uniform(self):
        rng = np.random.default_rng(0)
        counts = rng.multinomial(100000, zipf_weights(16, 0.0, rng=rng))
        assert assignment_imbalance(counts) < 1.1

    def test_imbalance_of_balanced_is_one(self):
        assert assignment_imbalance(balanced_assignment(64, 8)) == 1.0
        assert assignment_imbalance(np.zeros(4)) == 1.0

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(4, -0.5)

    def test_zipf_weights_normalized(self):
        weights = zipf_weights(8, 1.2, rng=np.random.default_rng(1))
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()


class TestBuildWorkload:
    def test_block_structure_follows_config(self):
        cluster = Cluster(2, MachineSpec(num_gpus=2))
        workload = build_workload(small_config(), cluster)
        assert len(workload.blocks) == 4
        assert [b.is_moe for b in workload.blocks] == [False, True, False, True]

    def test_routing_rows_sum_to_tokens(self):
        config = small_config()
        cluster = Cluster(2, MachineSpec(num_gpus=2))
        workload = build_workload(config, cluster)
        for block in workload.moe_blocks():
            np.testing.assert_array_equal(
                block.routing.sum(axis=1),
                np.full(4, config.tokens_per_worker),
            )

    def test_balanced_routing_is_uniform(self):
        cluster = Cluster(2, MachineSpec(num_gpus=2))
        workload = build_workload(small_config(), cluster, imbalance=0)
        block = workload.moe_blocks()[0]
        assert block.routing.max() - block.routing.min() <= 1

    def test_imbalanced_routing_shares_hot_experts(self):
        """All workers must overload the same experts (§3.1)."""
        cluster = Cluster(2, MachineSpec(num_gpus=4))
        config = small_config().scaled(batch_size=64)
        workload = build_workload(
            config, cluster, imbalance=1.5, rng=np.random.default_rng(3)
        )
        block = workload.moe_blocks()[0]
        per_worker_hot = block.routing.argmax(axis=1)
        # The hottest expert is (near-)identical across workers.
        assert len(set(per_worker_hot.tolist())) <= 2

    def test_dispatch_matrix_has_zero_diagonal(self):
        cluster = Cluster(2, MachineSpec(num_gpus=2))
        workload = build_workload(small_config(), cluster)
        block = workload.moe_blocks()[0]
        matrix = block.tokens_sent_matrix(
            workload.placement(block.index), workload.token_bytes
        )
        assert matrix.shape == (4, 4)
        assert matrix.diagonal().sum() == 0

    def test_dispatch_matrix_conserves_offworker_tokens(self):
        cluster = Cluster(2, MachineSpec(num_gpus=2))
        workload = build_workload(small_config(), cluster)
        block = workload.moe_blocks()[0]
        placement = workload.placement(block.index)
        matrix = block.tokens_sent_matrix(placement, workload.token_bytes)
        for rank in range(4):
            off_worker = sum(
                block.routing[rank][e]
                for e in range(block.num_experts)
                if placement.owner(e) != rank
            )
            assert matrix[rank].sum() == pytest.approx(
                off_worker * workload.token_bytes
            )

    def test_placement_requires_moe_block(self):
        cluster = Cluster(2, MachineSpec(num_gpus=2))
        workload = build_workload(small_config(), cluster)
        with pytest.raises(ValueError):
            workload.placement(0)

    def test_dense_blocks_have_ffn_flops(self):
        cluster = Cluster(2, MachineSpec(num_gpus=2))
        workload = build_workload(small_config(), cluster)
        dense = workload.blocks[0]
        moe = workload.blocks[1]
        assert dense.ffn_flops > 0
        assert moe.ffn_flops == 0
        assert moe.dense_flops > dense.dense_flops - dense.ffn_flops  # + gate

    def test_paper_scale_workload(self):
        cluster = Cluster(4)
        workload = build_workload(moe_bert(32), cluster)
        assert workload.world_size == 32
        block = workload.moe_blocks()[0]
        assert block.routing.shape == (32, 32)
