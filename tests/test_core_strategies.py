"""Tests for the pluggable block-execution strategy layer."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.config import ModelConfig
from repro.core import (
    BlockStrategy,
    JanusEngine,
    Paradigm,
    build_workload,
    engine_for,
    engine_modes,
    get_strategy,
    resolve_strategy_name,
    strategy_map,
    strategy_names,
)
from repro.core.strategies import (
    DataCentricStrategy,
    ExpertCentricStrategy,
    PipelinedExpertCentricStrategy,
)
from repro.core import JanusFeatures


from tests.conftest import small_cluster, small_config  # noqa: E402


class TestRegistry:
    def test_builtins_registered(self):
        assert set(strategy_names()) >= {
            "expert-centric", "data-centric", "pipelined-ec"
        }
        assert get_strategy("expert-centric") is ExpertCentricStrategy
        assert get_strategy("data-centric") is DataCentricStrategy
        assert get_strategy("pipelined-ec") is PipelinedExpertCentricStrategy

    def test_unknown_name_rejected_with_known_names(self):
        with pytest.raises(ValueError, match="token-centric"):
            get_strategy("token-centric")
        with pytest.raises(ValueError, match="data-centric"):
            get_strategy("token-centric")

    def test_resolve_accepts_name_paradigm_and_class(self):
        assert resolve_strategy_name("data-centric") == "data-centric"
        assert resolve_strategy_name(Paradigm.EXPERT_CENTRIC) == "expert-centric"
        assert (
            resolve_strategy_name(Paradigm.PIPELINED_EXPERT_CENTRIC)
            == "pipelined-ec"
        )
        assert resolve_strategy_name(ExpertCentricStrategy) == "expert-centric"

    def test_resolve_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_strategy_name(42)
        with pytest.raises(ValueError):
            resolve_strategy_name("not-a-strategy")

    def test_registration_order_is_ec_dc_pipelined(self):
        """Spawn order and memory-term order depend on it (determinism)."""
        assert strategy_names()[:4] == (
            "expert-centric", "data-centric", "pipelined-ec",
            "microbatch-ec",
        )

    def test_engine_modes_derived_from_registry(self):
        modes = engine_modes()
        assert set(strategy_names()) <= set(modes)
        assert "unified" in modes

    def test_strategy_modes_reject_selector_arguments(self):
        for kwargs in ({"threshold": 2.0},
                       {"low_r_strategy": "pipelined-ec"}):
            with pytest.raises(TypeError):
                engine_for(
                    "expert-centric", small_config(), small_cluster(),
                    **kwargs,
                )
        with pytest.raises(TypeError):
            engine_for(
                "auto", small_config(), small_cluster(),
                low_r_strategy="pipelined-ec",
            )


class TestMixedStrategyIteration:
    def make_engine(self, **engine_kwargs):
        config = small_config(
            num_blocks=6, experts_per_block={1: 4, 3: 4, 5: 4}
        )
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        return JanusEngine(
            cluster,
            workload,
            {1: "expert-centric", 3: "data-centric", 5: "pipelined-ec"},
            **engine_kwargs,
        )

    def test_all_three_strategies_run_in_one_iteration(self):
        result = self.make_engine().run_iteration()
        assert result.seconds > 0
        assert result.strategies == {
            1: "expert-centric", 3: "data-centric", 5: "pipelined-ec",
        }
        details = {
            span.detail for span in result.trace.spans_of("comm.a2a")
        }
        # Plain EC spans on block 1, chunked spans on block 5.
        assert "fwd-dispatch" in details
        assert "fwd-dispatch:0" in details
        # DC block 3 ran through the pull pipeline (expert arrivals traced).
        arrivals = result.trace.expert_arrivals(0)
        assert {event["block"] for event in arrivals} == {3}

    def test_forward_only_mixed_iteration(self):
        engine = self.make_engine()
        result = engine.run_iteration(forward_only=True)
        training = engine.run_iteration()
        assert 0 < result.seconds < training.seconds
        details = {
            span.detail for span in result.trace.spans_of("comm.a2a")
        }
        assert not any(
            detail and detail.startswith("bwd") for detail in details
        )

    def test_mixed_iteration_is_deterministic(self):
        engine = self.make_engine()
        first = engine.run_iteration()
        second = engine.run_iteration()
        assert first.seconds == second.seconds
        np.testing.assert_array_equal(
            first.nic_egress_bytes, second.nic_egress_bytes
        )

    def test_paradigms_property_covers_builtin_strategies(self):
        result = self.make_engine().run_iteration()
        assert result.paradigms == {
            1: Paradigm.EXPERT_CENTRIC,
            3: Paradigm.DATA_CENTRIC,
            5: Paradigm.PIPELINED_EXPERT_CENTRIC,
        }

    def test_strategy_specs_can_mix_forms(self):
        config = small_config()
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        engine = JanusEngine(
            cluster, workload,
            {1: Paradigm.DATA_CENTRIC, 3: ExpertCentricStrategy},
        )
        assert engine.block_strategies == {
            1: "data-centric", 3: "expert-centric",
        }
        assert engine.run_iteration().seconds > 0

    def test_unknown_strategy_in_map_rejected(self):
        config = small_config()
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        with pytest.raises(ValueError, match="unknown block strategy"):
            JanusEngine(cluster, workload, {1: "magic", 3: "data-centric"})


class TestGoldenRegression:
    """The extracted EC/DC strategies must reproduce the pre-refactor
    engine bit-for-bit.  Goldens were captured from the engine at commit
    d8bd599 (before the strategy extraction) on fixed-seed configs."""

    CLUSTER = dict(machines=2, gpus=2)

    # mode -> (train seconds, train egress, inference seconds, inf egress)
    GOLDEN = {
        "expert-centric": (
            0.0005236974933333334,
            [2097151.9999999993, 2097151.9999999993],
            0.00020988017777777779,
            [1048575.9999999995, 1048575.9999999995],
        ),
        "data-centric": (
            0.0012143906844444446,
            [1048576.000000004, 1048576.000000004],
            0.0004054343964444444,
            [524288.0000000003, 524288.0000000003],
        ),
    }

    def test_pure_engines_match_pre_refactor_goldens(self):
        config = small_config(name="golden")
        cluster = small_cluster(**self.CLUSTER)
        workload = build_workload(config, cluster)
        for mode, (train_s, train_egress, inf_s, inf_egress) in (
            self.GOLDEN.items()
        ):
            engine = engine_for(mode, config, cluster, workload=workload)
            train = engine.run_iteration()
            inference = engine.run_iteration(forward_only=True)
            assert train.seconds == train_s, mode
            assert train.nic_egress_bytes.tolist() == train_egress, mode
            assert inference.seconds == inf_s, mode
            assert inference.nic_egress_bytes.tolist() == inf_egress, mode

    def test_unified_imbalanced_matches_golden(self):
        config = ModelConfig(
            name="golden2", batch_size=64, seq_len=32, top_k=2,
            hidden_dim=64, num_blocks=4, experts_per_block={1: 4, 3: 16},
            num_heads=4,
        )
        cluster = small_cluster(**self.CLUSTER)
        workload = build_workload(
            config, cluster, imbalance=0.4, rng=np.random.default_rng(7)
        )
        result = engine_for(
            "unified", config, cluster, workload=workload, check_memory=False
        ).run_iteration()
        assert result.seconds == 0.002992758741333333
        assert result.nic_egress_bytes.tolist() == [
            2621439.9999999716, 2621439.999999972,
        ]

    def test_mixed_jittered_matches_golden(self):
        config = ModelConfig(
            name="golden2", batch_size=64, seq_len=32, top_k=2,
            hidden_dim=64, num_blocks=4, experts_per_block={1: 4, 3: 16},
            num_heads=4,
        )
        cluster = small_cluster(**self.CLUSTER)
        workload = build_workload(
            config, cluster, imbalance=0.4, rng=np.random.default_rng(7)
        )
        result = JanusEngine(
            cluster, workload,
            {1: Paradigm.DATA_CENTRIC, 3: Paradigm.EXPERT_CENTRIC},
            compute_jitter=0.05, jitter_seed=3, check_memory=False,
        ).run_iteration()
        assert result.seconds == 0.0015399149843149929
        assert result.nic_egress_bytes.tolist() == [
            4686336.000000003, 4686336.000000005,
        ]


class TestExpertComputePrice:
    def test_one_price_for_tokens_launches_and_backward(self):
        """``expert_seconds`` is the only expert-compute formula: tokens
        through the expert FFN plus per-launch overhead, doubled in the
        backward sweep."""
        config = small_config()
        cluster = small_cluster()
        engine = engine_for("expert-centric", config, cluster)
        strategy = ExpertCentricStrategy(engine, (1, 3))
        flops = engine.workload.expert_flops
        overhead = cluster.spec.gpu.kernel_overhead
        forward = strategy.expert_seconds(100, 1e12, 2, "fwd")
        assert forward == 100 * flops / 1e12 + overhead * 2
        assert strategy.expert_seconds(100, 1e12, 2, "bwd") == 2 * forward


class TestPipelinedExpertCentric:
    def test_single_chunk_degenerates_to_plain_ec(self):
        config = small_config()
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        features = JanusFeatures(ec_pipeline_chunks=1)
        ec = engine_for(
            "expert-centric", config, cluster, workload=workload, features=features
        ).run_iteration()
        pipelined = engine_for(
            "pipelined-ec", config, cluster, workload=workload, features=features
        ).run_iteration()
        assert pipelined.seconds == ec.seconds
        np.testing.assert_array_equal(
            pipelined.nic_egress_bytes, ec.nic_egress_bytes
        )

    def test_traffic_matches_plain_ec(self):
        """Chunking reschedules the All-to-All, it must not change the
        byte volume."""
        config = small_config()
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        ec = engine_for(
            "expert-centric", config, cluster, workload=workload
        ).run_iteration()
        pipelined = engine_for(
            "pipelined-ec", config, cluster, workload=workload
        ).run_iteration()
        np.testing.assert_allclose(
            pipelined.nic_egress_bytes, ec.nic_egress_bytes, rtol=1e-9
        )

    def test_chunk_count_must_be_positive(self):
        with pytest.raises(ValueError):
            JanusFeatures(ec_pipeline_chunks=0)

    def test_overlap_beats_plain_ec_on_low_r_blocks(self):
        """The Parm/FlowMoE claim: on comm-heavy low-R blocks, chunked
        All-to-All overlapped with expert compute beats the serialized
        dispatch-compute-combine."""
        cluster = Cluster(4)
        config = ModelConfig(
            name="low-R", batch_size=64, seq_len=64, top_k=2,
            hidden_dim=768, num_blocks=12,
            experts_per_block={6: 128, 10: 128}, num_heads=8,
        )
        workload = build_workload(config, cluster)
        kwargs = dict(workload=workload, check_memory=False)
        ec = engine_for("expert-centric", config, cluster, **kwargs).run_iteration()
        pipelined = engine_for(
            "pipelined-ec", config, cluster, **kwargs
        ).run_iteration()
        assert pipelined.seconds < ec.seconds

    def test_excessive_chunking_pays_kernel_overhead(self):
        """Each chunk relaunches every resident expert's GEMM, so very
        large K must eventually lose the overlap gain."""
        cluster = Cluster(4)
        config = ModelConfig(
            name="low-R", batch_size=64, seq_len=64, top_k=2,
            hidden_dim=768, num_blocks=12,
            experts_per_block={6: 128, 10: 128}, num_heads=8,
        )
        workload = build_workload(config, cluster)
        kwargs = dict(workload=workload, check_memory=False)
        few = engine_for(
            "pipelined-ec", config, cluster, features=JanusFeatures(ec_pipeline_chunks=2),
            **kwargs,
        ).run_iteration()
        many = engine_for(
            "pipelined-ec", config, cluster, features=JanusFeatures(ec_pipeline_chunks=64),
            **kwargs,
        ).run_iteration()
        assert many.seconds > few.seconds


class TestStrategySelector:
    def test_strategy_map_matches_paradigm_map_by_default(self):
        config = small_config(
            batch_size=16, seq_len=32, experts_per_block={1: 4, 3: 16}
        )
        cluster = small_cluster()
        mapping = strategy_map(config, cluster)
        assert mapping == {1: "data-centric", 3: "expert-centric"}

    def test_strategy_map_pluggable_low_r_side(self):
        config = small_config(
            batch_size=16, seq_len=32, experts_per_block={1: 4, 3: 16}
        )
        cluster = small_cluster()
        mapping = strategy_map(
            config, cluster, low_r_strategy="pipelined-ec"
        )
        assert mapping == {1: "data-centric", 3: "pipelined-ec"}

    def test_strategy_map_rejects_unknown_strategies(self):
        config = small_config()
        cluster = small_cluster()
        with pytest.raises(ValueError):
            strategy_map(config, cluster, low_r_strategy="magic")

    def test_unified_engine_with_pipelined_low_r(self):
        config = small_config(
            batch_size=16, seq_len=32, experts_per_block={1: 4, 3: 16}
        )
        cluster = small_cluster()
        engine = engine_for(
            "unified", config, cluster, low_r_strategy="pipelined-ec",
            check_memory=False,
        )
        result = engine.run_iteration()
        assert result.strategies == {1: "data-centric", 3: "pipelined-ec"}
        assert result.seconds > 0

    def test_engine_for_pipelined_mode(self):
        engine = engine_for("pipelined-ec", small_config(), small_cluster())
        assert set(engine.block_strategies.values()) == {"pipelined-ec"}
        assert engine.run_iteration().seconds > 0


class TestCustomStrategyExtension:
    def test_engine_accepts_a_custom_strategy_instance_map(self):
        """The extension point: a strategy defined outside the package can
        drive blocks, provided it is registered."""
        from repro.core.strategies.base import _REGISTRY

        class SkipStrategy(ExpertCentricStrategy):
            """EC with a different name, to exercise registration."""

            name = "test-skip"

        try:
            from repro.core import register_strategy

            register_strategy(SkipStrategy)
            config = small_config()
            cluster = small_cluster()
            workload = build_workload(config, cluster)
            engine = JanusEngine(
                cluster, workload, {1: "test-skip", 3: "data-centric"},
                check_memory=False,
            )
            result = engine.run_iteration()
            assert result.strategies[1] == "test-skip"
            with pytest.raises(ValueError):
                result.paradigms  # no enum member for the custom name
        finally:
            _REGISTRY.pop("test-skip", None)

    def test_duplicate_registration_rejected(self):
        from repro.core import register_strategy

        class Impostor(BlockStrategy):
            name = "data-centric"

            def worker_tasks(self, ctx, rank, index, phase):
                return []

        with pytest.raises(ValueError, match="already registered"):
            register_strategy(Impostor)

    def test_nameless_strategy_rejected(self):
        from repro.core import register_strategy

        class Nameless(BlockStrategy):
            def worker_tasks(self, ctx, rank, index, phase):
                return []

        with pytest.raises(ValueError):
            register_strategy(Nameless)


class TestMemoryModel:
    def test_estimate_strategies_validates_coverage(self):
        from repro.core import estimate_strategies

        with pytest.raises(ValueError, match="cover every MoE block"):
            estimate_strategies(small_config(), 4, {"expert-centric": 1})

    def test_estimate_strategies_rejects_unknown_names(self):
        from repro.core import estimate_strategies

        config = small_config()
        with pytest.raises(ValueError, match="unknown block strategy"):
            estimate_strategies(config, 4, {"magic": 2})

    def test_pipelined_buffers_smaller_than_plain_ec(self):
        """Chunking shrinks the transient A2A working buffers, so the
        pipelined strategy must sit between pure EC and pure DC."""
        from repro.core import estimate_strategies

        config = small_config()
        ec = estimate_strategies(config, 4, {"expert-centric": 2})
        pec = estimate_strategies(
            config, 4, {"pipelined-ec": 2}, pipeline_chunks=4
        )
        dc = estimate_strategies(config, 4, {"data-centric": 2})
        assert pec.paradigm_extra < ec.paradigm_extra
        more_chunks = estimate_strategies(
            config, 4, {"pipelined-ec": 2}, pipeline_chunks=16
        )
        assert more_chunks.paradigm_extra < pec.paradigm_extra
        assert dc.paradigm_extra < pec.paradigm_extra


class TestContextStrategyBlocks:
    def test_engine_populates_per_strategy_block_sets(self):
        config = small_config(
            num_blocks=6, experts_per_block={1: 4, 3: 4, 5: 4}
        )
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        engine = JanusEngine(
            cluster, workload,
            {1: "expert-centric", 3: "data-centric", 5: "pipelined-ec"},
        )
        # Run via a captured context: grab it from the engine's
        # per-iteration world builder.
        captured = {}
        prepare = engine._prepare

        def capture(*args, **kwargs):
            prepared = prepare(*args, **kwargs)
            captured["ctx"] = prepared[0]
            return prepared

        engine._prepare = capture
        engine.run_iteration()
        ctx = captured["ctx"]
        assert ctx.blocks_of("expert-centric") == (1,)
        assert ctx.blocks_of("data-centric") == (3,)
        assert ctx.blocks_of("pipelined-ec") == (5,)
        assert ctx.blocks_of("unheard-of") == ()
        # Only task-queue strategies feed the schedulers.
        assert ctx.dc_block_indices == [3]

    def test_context_derives_strategy_blocks_from_dc_blocks(self):
        from repro.core import IterationContext
        from repro.netsim import Fabric
        from repro.simkit import Environment
        from repro.trace import TraceRecorder

        config = small_config()
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        env = Environment()
        ctx = IterationContext(
            env, Fabric(env, cluster), workload, JanusFeatures(),
            TraceRecorder(), dc_blocks={1},
        )
        assert ctx.blocks_of("data-centric") == (1,)
        assert ctx.blocks_of("expert-centric") == (3,)
