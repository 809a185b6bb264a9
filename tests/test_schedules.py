"""Tests for the schedules only the task graph can express.

Micro-batched expert-centric lanes (Parm/FlowMoE-style chunk overlap),
the backward dense-gradient all-reduce (serial vs. overlapped), the ring
all-reduce collective itself, and the schedule-aware ``auto`` engine.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.config import moe_gpt
from repro.core import (
    JanusFeatures,
    auto_schedule_map,
    engine_for,
    engine_modes,
    strategy_names,
)
from repro.netsim import Fabric, all_reduce
from repro.simkit import Environment

from tests.conftest import small_cluster, small_config

# The paper-scale schedule benchmark shape: one low-R MoE block where
# expert-centric wins and one 256-expert block where data-centric wins.
MIXED_R = moe_gpt(32).scaled(experts_per_block={6: 32, 10: 256})


def _mixed_engine(mode, features=None):
    return engine_for(
        mode, MIXED_R, Cluster(4), rng=np.random.default_rng(0),
        imbalance=0.3, features=features, check_memory=False,
    )


def _small_engine(mode, features=None):
    return engine_for(
        mode, small_config(), small_cluster(),
        rng=np.random.default_rng(0), imbalance=0.3, features=features,
    )


class TestMicroBatchedSchedule:
    def test_registered_as_strategy_and_engine_mode(self):
        assert "microbatch-ec" in strategy_names()
        assert "microbatch-ec" in engine_modes()
        assert "auto" in engine_modes()

    def test_beats_plain_expert_centric_on_mixed_r(self):
        """Chunk overlap hides All-to-All behind expert compute (Fig. 5)."""
        plain = _mixed_engine("expert-centric").run_iteration()
        micro = _mixed_engine(
            "microbatch-ec", JanusFeatures(micro_batches=4)
        ).run_iteration()
        assert micro.seconds < plain.seconds
        # Same tokens routed: total cross-node traffic is unchanged.
        assert sum(micro.nic_egress_bytes) == pytest.approx(
            sum(plain.nic_egress_bytes)
        )

    def test_single_micro_batch_degenerates_gracefully(self):
        """M=1 is the plain expert-centric block, bit for bit."""
        features = JanusFeatures(micro_batches=1)
        result = _small_engine("microbatch-ec", features).run_iteration()
        plain = _small_engine("expert-centric", features).run_iteration()
        assert result.seconds == plain.seconds
        np.testing.assert_array_equal(
            result.nic_egress_bytes, plain.nic_egress_bytes
        )
        assert result.sim_events == plain.sim_events


class TestGradAllreduceSchedule:
    def test_serial_allreduce_adds_time(self):
        base = _small_engine("expert-centric").run_iteration()
        serial = _small_engine(
            "expert-centric", JanusFeatures(grad_allreduce="serial")
        ).run_iteration()
        assert serial.seconds > base.seconds

    def test_overlap_hides_part_of_the_allreduce(self):
        serial = _small_engine(
            "expert-centric", JanusFeatures(grad_allreduce="serial")
        ).run_iteration()
        overlap = _small_engine(
            "expert-centric", JanusFeatures(grad_allreduce="overlap")
        ).run_iteration()
        assert overlap.seconds < serial.seconds

    def test_forward_only_skips_the_allreduce(self):
        base = _small_engine("expert-centric").run_iteration(
            forward_only=True
        )
        overlapped = _small_engine(
            "expert-centric", JanusFeatures(grad_allreduce="overlap")
        ).run_iteration(forward_only=True)
        assert overlapped.seconds == base.seconds


class TestRingAllReduce:
    def _drive(self, num_machines, bytes_per_rank, hierarchical):
        env = Environment()
        fabric = Fabric(env, Cluster(num_machines))
        done = all_reduce(fabric, bytes_per_rank, hierarchical=hierarchical)

        def driver():
            yield done

        env.run(until=env.process(driver()))
        return env.now, fabric

    def test_zero_bytes_completes_instantly(self):
        now, _ = self._drive(2, 0.0, hierarchical=True)
        assert now == 0.0

    def test_hierarchical_beats_flat_ring(self):
        """Striping the inter-machine ring over all NICs must win."""
        size = 1 << 30
        hier, _ = self._drive(2, size, hierarchical=True)
        flat, _ = self._drive(2, size, hierarchical=False)
        assert 0 < hier < flat

    def test_single_machine_stays_on_nvlink(self):
        _, fabric = self._drive(1, 1 << 20, hierarchical=True)
        assert fabric.nic_bytes(0, "out") == 0.0

    def test_negative_bytes_rejected(self):
        env = Environment()
        fabric = Fabric(env, Cluster(2))
        with pytest.raises(ValueError):
            all_reduce(fabric, -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("hierarchical", [True, False])
    def test_non_finite_bytes_rejected_before_any_flow(self, bad,
                                                       hierarchical):
        env = Environment()
        fabric = Fabric(env, Cluster(2))
        with pytest.raises(ValueError, match="bytes_per_rank must be finite"):
            all_reduce(fabric, bad, hierarchical=hierarchical)
        assert env.peek() == float("inf")


class TestAutoSchedule:
    def test_mixed_r_map_picks_per_block_winners(self):
        assert auto_schedule_map(MIXED_R, Cluster(4)) == {
            6: "data-centric", 10: "microbatch-ec"
        }

    def test_high_threshold_disables_data_centric(self):
        schedule = auto_schedule_map(MIXED_R, Cluster(4), threshold=1e9)
        assert "data-centric" not in schedule.values()

    def test_bad_micro_batches_rejected(self):
        with pytest.raises(ValueError):
            auto_schedule_map(MIXED_R, Cluster(4), micro_batches=0)

    def test_one_machine_keeps_low_r_blocks_expert_centric(self):
        """One machine has no cross-node All-to-All to overlap, so the
        micro-batch test is not asked (its closed form needs two)."""
        config = moe_gpt(8).scaled(batch_size=1, seq_len=8)
        result = engine_for("auto", config, Cluster(1)).run_iteration()
        assert result.seconds > 0
        assert set(result.strategies.values()) == {"expert-centric"}
        assert set(result.strategies) == set(config.moe_block_indices)

    def test_auto_engine_overlaps_allreduce_by_default(self):
        engine = engine_for("auto", small_config(), small_cluster(),
                            rng=np.random.default_rng(0))
        assert engine.features.grad_allreduce == "overlap"

    def test_auto_engine_keeps_explicit_allreduce_choice(self):
        engine = engine_for(
            "auto", small_config(), small_cluster(),
            rng=np.random.default_rng(0),
            features=JanusFeatures(grad_allreduce="serial"),
        )
        assert engine.features.grad_allreduce == "serial"

    def test_auto_engine_runs_end_to_end(self):
        result = engine_for(
            "auto", small_config(), small_cluster(),
            rng=np.random.default_rng(0), imbalance=0.3,
        ).run_iteration()
        assert result.seconds > 0
        assert set(result.strategies) == {1, 3}


class TestDenseParamBytes:
    def test_formula_splits_attention_and_ffn(self):
        config = small_config()  # H=64, MoE blocks {1, 3}, dtype fp32
        h = config.hidden_dim
        dense = config.dense_param_bytes(0)
        moe = config.dense_param_bytes(1)
        assert moe == 4 * h * h * config.dtype_bytes
        assert dense == (4 * h * h + 2 * h * config.ffn_mult * h) \
            * config.dtype_bytes
        assert dense > moe  # MoE blocks keep only attention dense
