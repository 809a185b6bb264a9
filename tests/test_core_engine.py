"""Integration tests for the timed engines (small configs for speed)."""

import dataclasses

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core import (
    JanusEngine,
    JanusFeatures,
    TaskKind,
    build_workload,
    engine_for,
    strategy_map,
)


from tests.conftest import small_cluster, small_config  # noqa: E402


class TestEngineBasics:
    def test_ec_engine_runs_and_times_are_positive(self):
        result = engine_for("expert-centric", small_config(), small_cluster()).run_iteration()
        assert result.seconds > 0
        assert result.all_to_all_seconds > 0
        assert result.all_to_all_share <= 1

    def test_dc_engine_runs_without_all_to_all(self):
        result = engine_for("data-centric", small_config(), small_cluster()).run_iteration()
        assert result.seconds > 0
        assert result.all_to_all_seconds == 0

    def test_iterations_are_deterministic(self):
        engine = engine_for("data-centric", small_config(), small_cluster())
        first = engine.run_iteration()
        second = engine.run_iteration()
        assert first.seconds == second.seconds
        np.testing.assert_array_equal(
            first.nic_egress_bytes, second.nic_egress_bytes
        )

    def test_run_many(self):
        engine = engine_for("expert-centric", small_config(), small_cluster())
        results = engine.run(3)
        assert len(results) == 3

    def test_paradigm_map_coverage_enforced(self):
        cluster = small_cluster()
        workload = build_workload(small_config(), cluster)
        with pytest.raises(ValueError):
            JanusEngine(cluster, workload, {1: "data-centric"})

    def test_engine_for_modes(self):
        cluster = small_cluster()
        for mode in ("expert-centric", "data-centric", "unified"):
            engine = engine_for(mode, small_config(), cluster)
            assert engine.run_iteration().seconds > 0
        with pytest.raises(ValueError):
            engine_for("token-centric", small_config(), cluster)


class TestTrafficAccounting:
    def test_dc_cross_node_traffic_matches_hierarchical_invariant(self):
        """Forward: one pull per (machine, external expert); backward: one
        pre-reduced gradient per (machine, external expert)."""
        config = small_config()
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        result = engine_for(
            "data-centric", config, cluster, workload=workload
        ).run_iteration()
        expert_bytes = workload.expert_bytes
        external_per_machine = 2  # 4 experts, 2 local per machine
        expected = (
            2  # machines
            * len(config.moe_block_indices)
            * external_per_machine
            * expert_bytes
            * 2  # forward pull + backward gradient push
        )
        assert result.nic_egress_bytes.sum() == pytest.approx(expected, rel=1e-6)

    def test_non_hierarchical_moves_more_cross_node(self):
        config = small_config(experts_per_block={1: 8, 3: 8})
        cluster = small_cluster(machines=2, gpus=4)
        workload = build_workload(config, cluster)
        with_cache = engine_for(
            "data-centric", config, cluster, workload=workload
        ).run_iteration()
        without_cache = engine_for(
            "data-centric", config, cluster, workload=workload,
            features=JanusFeatures(hierarchical=False),
        ).run_iteration()
        assert (
            without_cache.nic_egress_bytes.sum()
            > 2 * with_cache.nic_egress_bytes.sum()
        )

    def test_ec_traffic_matches_dispatch_matrices(self):
        config = small_config()
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        result = engine_for(
            "expert-centric", config, cluster, workload=workload
        ).run_iteration()
        expected = 0.0
        for block in workload.moe_blocks():
            matrix = block.tokens_sent_matrix(
                workload.placement(block.index), workload.token_bytes
            )
            cross = 0.0
            for src in range(workload.world_size):
                for dst in range(workload.world_size):
                    if src // 2 != dst // 2:  # different machines
                        cross += matrix[src, dst]
            expected += cross * 4  # fwd dispatch+combine, bwd mirror
        assert result.nic_egress_bytes.sum() == pytest.approx(expected, rel=1e-6)


class TestParadigmPerformanceShape:
    def test_dc_faster_when_r_large(self):
        """Tokens heavy, experts light -> data-centric wins (R >> 1)."""
        config = small_config(batch_size=256, seq_len=128, hidden_dim=32)
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        ec = engine_for("expert-centric", config, cluster, workload=workload).run_iteration()
        dc = engine_for("data-centric", config, cluster, workload=workload).run_iteration()
        assert dc.seconds < ec.seconds

    def test_ec_faster_when_r_small(self):
        """Few tokens, big experts -> expert-centric wins (R < 1)."""
        config = small_config(batch_size=1, seq_len=8, hidden_dim=256)
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        ec = engine_for("expert-centric", config, cluster, workload=workload).run_iteration()
        dc = engine_for("data-centric", config, cluster, workload=workload).run_iteration()
        assert ec.seconds < dc.seconds

    def test_unified_never_worse_than_both_pure_modes(self):
        """A PR-MoE-style mixed model: unified picks per block.

        Block 1 has R = 128 (data-centric clearly wins); block 3 has 512
        experts so R = 1 (expert-centric wins -- pulling 511 experts per
        worker is hopeless).  Unified must match or beat both pure modes.
        """
        config = ModelConfig(
            name="mixed", batch_size=256, seq_len=128, top_k=2, hidden_dim=64,
            num_blocks=4, experts_per_block={1: 4, 3: 512}, num_heads=4,
        )
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        kwargs = dict(workload=workload, check_memory=False)
        ec = engine_for("expert-centric", config, cluster, **kwargs).run_iteration()
        dc = engine_for("data-centric", config, cluster, **kwargs).run_iteration()
        unified = engine_for(
            "unified", config, cluster, **kwargs
        ).run_iteration()
        # At this toy scale fixed link latencies dominate, so allow some
        # slack; the realistic-scale assertion lives in the Fig. 17 bench.
        tolerance = 1.10
        assert unified.seconds <= ec.seconds * tolerance
        assert unified.seconds <= dc.seconds * tolerance

    def test_unified_uses_r_metric_per_block(self):
        config = ModelConfig(
            name="mixed", batch_size=16, seq_len=32, top_k=2, hidden_dim=64,
            num_blocks=4, experts_per_block={1: 4, 3: 16}, num_heads=4,
        )
        mapping = strategy_map(config, small_cluster())
        assert mapping == {1: "data-centric", 3: "expert-centric"}


class TestFeatureAblation:
    def make_results(self, config=None, cluster=None):
        config = config or small_config(
            batch_size=64, seq_len=64, experts_per_block={1: 8, 3: 8}
        )
        cluster = cluster or small_cluster(machines=2, gpus=4)
        workload = build_workload(config, cluster)
        results = {}
        for name, features in [
            ("base", JanusFeatures(topology_aware=False, prefetch=False)),
            ("topo", JanusFeatures(topology_aware=True, prefetch=False)),
            ("full", JanusFeatures(topology_aware=True, prefetch=True)),
        ]:
            results[name] = engine_for(
                "data-centric", config, cluster, workload=workload, features=features
            ).run_iteration()
        return results

    def test_each_feature_helps_or_is_neutral(self):
        results = self.make_results()
        slack = 1.02
        assert results["topo"].seconds <= results["base"].seconds * slack
        assert results["full"].seconds <= results["topo"].seconds * slack

    def test_prefetch_starts_pulls_before_block_entry(self):
        config = small_config(batch_size=64, seq_len=64)
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        no_prefetch = engine_for(
            "data-centric", config, cluster, workload=workload,
            features=JanusFeatures(prefetch=False),
        ).run_iteration()
        prefetch = engine_for(
            "data-centric", config, cluster, workload=workload,
            features=JanusFeatures(prefetch=True),
        ).run_iteration()
        first_arrival = min(
            event["time"] for event in prefetch.trace.expert_arrivals(0)
        )
        first_block_done = min(
            prefetch.trace.block_completions(0).values()
        )
        # With prefetch, expert pulls complete while early dense blocks are
        # still computing.
        assert first_arrival < first_block_done * 3
        assert prefetch.seconds <= no_prefetch.seconds * 1.02

    def test_credit_size_one_still_progresses(self):
        config = small_config()
        cluster = small_cluster()
        result = engine_for(
            "data-centric", config, cluster,
            features=JanusFeatures(credit_size=1),
        ).run_iteration()
        assert result.seconds > 0

    def test_invalid_credit_size_rejected(self):
        with pytest.raises(ValueError):
            JanusFeatures(credit_size=0)

    @pytest.mark.parametrize("field,bad,good", [
        ("credit_size", 2.5, np.int64(2)),
        ("ec_pipeline_chunks", 2.5, np.int64(2)),
        ("micro_batches", 1.5, np.int32(2)),
        ("block_chunks", {10: 2.5}, {10: np.int64(2)}),
    ])
    def test_non_integral_counts_rejected(self, field, bad, good):
        """Credits, chunks and micro-batches count whole things; numpy
        integers still count."""
        with pytest.raises(ValueError, match="positive integer"):
            JanusFeatures(**{field: bad})
        JanusFeatures(**{field: good})


class TestTrace:
    def test_block_completions_recorded_for_trace_worker(self):
        config = small_config()
        result = engine_for("data-centric", config, small_cluster()).run_iteration()
        completions = result.trace.block_completions(0)
        assert sorted(completions) == list(range(config.num_blocks))
        times = [completions[b] for b in range(config.num_blocks)]
        assert times == sorted(times)

    def test_expert_arrivals_recorded(self):
        config = small_config()
        result = engine_for("data-centric", config, small_cluster()).run_iteration()
        arrivals = result.trace.expert_arrivals(0)
        # Worker 0 needs 3 foreign experts per MoE block (4 experts, 1 own).
        assert len(arrivals) == 2 * 3

    def test_ec_trace_has_a2a_spans(self):
        config = small_config()
        result = engine_for("expert-centric", config, small_cluster()).run_iteration()
        spans = result.trace.spans_of("comm.a2a")
        # 2 MoE blocks x 2 phases x 2 collectives.
        assert len(spans) == 8


class TestOneSpanSource:
    """The executor's observer is the only code that records a task's
    spans: task bodies are pure simulated work."""

    TASK_SPANS = ("compute.", "comm.a2a", "comm.allreduce")

    def make_engine(self):
        config = small_config(
            num_blocks=6, experts_per_block={1: 4, 3: 4, 5: 4}
        )
        cluster = small_cluster()
        return JanusEngine(
            cluster, build_workload(config, cluster),
            {1: "expert-centric", 3: "pipelined-ec", 5: "microbatch-ec"},
            features=JanusFeatures(micro_batches=2, grad_allreduce="serial"),
        )

    def test_no_body_records_a_task_span(self, monkeypatch):
        monkeypatch.setattr(
            JanusEngine, "_task_observer", lambda self, ctx: None
        )
        trace = self.make_engine().run_iteration().trace
        assert trace.block_completions(0)  # the recorder was live
        assert not [
            span for span in trace.spans
            if span.kind.startswith(self.TASK_SPANS)
        ]

    def test_each_named_span_precedes_its_task_span(self, monkeypatch):
        observed = []
        original = JanusEngine._task_observer

        def wrapped(self, ctx):
            observe = original(self, ctx)

            def logged(task, started, ended):
                before = len(ctx.trace.spans)
                observe(task, started, ended)
                observed.append((task, ctx.trace.spans[before:]))

            return logged

        monkeypatch.setattr(JanusEngine, "_task_observer", wrapped)
        trace = self.make_engine().run_iteration().trace
        named = 0
        for task, spans in observed:
            if task.worker not in (None, 0):
                assert spans == []
                continue
            assert spans[-1].kind == f"task.{task.kind.value}"
            if task.span is None:
                assert len(spans) == 1
                continue
            named += 1
            first, second = spans
            assert first.kind == task.span
            assert dataclasses.replace(first, kind=second.kind) == second
        assert named == len([
            span for span in trace.spans
            if span.kind.startswith(self.TASK_SPANS)
        ])
        assert {task.span for task, _ in observed} == {
            None, "compute.dense", "compute.expert", "comm.a2a",
            "comm.allreduce",
        }
        # Backward dense compute has never had a compute.dense span.
        backward = [
            task for task, _ in observed
            if task.kind is TaskKind.DENSE_COMPUTE and task.phase == "bwd"
        ]
        assert backward and all(task.span is None for task in backward)
