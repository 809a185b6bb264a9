"""Tests for the explicit task-graph scheduler (repro.core.taskgraph).

Structural validator, lane executor, DOT/JSON export, the engine's
``build_graph`` entry point, and the new schedules (micro-batched
expert-centric lanes, serial/overlapped gradient all-reduce) that only the
task graph can express.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    GraphValidationError,
    JanusFeatures,
    Lane,
    ResourceClaim,
    Task,
    TaskGraph,
    TaskKind,
    engine_for,
    run_lane,
    strategy_names,
)
from repro.simkit import Environment

from tests.conftest import small_cluster, small_config


def _task(name, **kw):
    kw.setdefault("kind", TaskKind.GATE)
    return Task(name, **kw)


class TestTaskBasics:
    def test_kind_coerced_from_string(self):
        assert _task("t", kind="expert-compute").kind is TaskKind.EXPERT_COMPUTE

    def test_bad_priority_rejected(self):
        with pytest.raises(ValueError):
            _task("t", priority=0)

    def test_bad_claim_mode_rejected(self):
        with pytest.raises(ValueError):
            ResourceClaim("gpu.0.stream", mode="hold")

    def test_bad_lane_role_rejected(self):
        with pytest.raises(ValueError):
            Lane("l", role="driver")

    def test_describe_is_json_ready(self):
        task = _task(
            "t", kind="a2a-chunk", waits=("a",), signals=("b",),
            claims=(ResourceClaim("nic.0"),), worker=1, block=2,
        )
        desc = task.describe()
        assert desc["kind"] == "a2a-chunk"
        assert desc["claims"] == [{"resource": "nic.0", "mode": "scoped"}]
        assert desc["waits"] == ["a"] and desc["signals"] == ["b"]


class TestValidator:
    def _graph(self):
        return TaskGraph()

    def test_valid_chain_returns_topo_order(self):
        graph = self._graph()
        graph.lane("a").add(_task("first", signals=("x",)))
        graph.lane("b").add(_task("second", waits=("x",), signals=("y",)))
        graph.declare_outputs("y")
        assert graph.validate() == ["first", "second"]

    def test_duplicate_task_names_rejected(self):
        graph = self._graph()
        graph.lane("a").add(_task("same"), _task("same"))
        with pytest.raises(GraphValidationError, match="duplicate"):
            graph.validate()

    def test_multiply_signaled_label_rejected(self):
        graph = self._graph()
        graph.lane("a").add(
            _task("one", signals=("x",)), _task("two", signals=("x",))
        )
        graph.lane("b").add(_task("sink", waits=("x",)))
        with pytest.raises(GraphValidationError, match="signaled by both"):
            graph.validate()

    def test_orphan_wait_rejected_unless_declared_input(self):
        graph = self._graph()
        graph.lane("a").add(_task("sink", waits=("ghost",)))
        with pytest.raises(GraphValidationError, match="never signaled"):
            graph.validate()
        graph.declare_inputs("ghost")
        graph.validate()

    def test_dangling_signal_rejected_unless_declared_output(self):
        graph = self._graph()
        graph.lane("a").add(_task("src", signals=("loose",)))
        with pytest.raises(GraphValidationError, match="never waited"):
            graph.validate()
        graph.declare_outputs("loose")
        graph.validate()

    def test_cross_lane_cycle_rejected(self):
        graph = self._graph()
        graph.lane("a").add(
            _task("a1", waits=("from-b",)), _task("a2", signals=("from-a",))
        )
        graph.lane("b").add(
            _task("b1", waits=("from-a",)), _task("b2", signals=("from-b",))
        )
        with pytest.raises(GraphValidationError, match="cycle"):
            graph.validate()

    def test_release_without_acquire_rejected(self):
        graph = self._graph()
        graph.lane("a").add(
            _task("t", claims=(ResourceClaim("link", mode="release"),))
        )
        with pytest.raises(GraphValidationError, match="without a prior"):
            graph.validate()

    def test_leaked_acquire_rejected(self):
        graph = self._graph()
        graph.lane("a").add(
            _task("t", claims=(ResourceClaim("link", mode="acquire"),))
        )
        with pytest.raises(GraphValidationError, match="never releases"):
            graph.validate()

    def test_balanced_acquire_release_ok(self):
        graph = self._graph()
        graph.lane("a").add(
            _task("open", claims=(ResourceClaim("link", mode="acquire"),)),
            _task("close", claims=(ResourceClaim("link", mode="release"),)),
        )
        graph.validate()

    def test_unbound_label_without_env_raises(self):
        graph = self._graph()
        with pytest.raises(GraphValidationError, match="unbound"):
            graph.event("nowhere")


class TestExecutor:
    def test_lanes_synchronize_through_labels(self):
        env = Environment()
        graph = TaskGraph(env)
        order = []

        def timed(duration, tag):
            def body():
                order.append((tag, env.now))
                yield env.timeout(duration)
            return body

        producer = graph.lane("producer")
        producer.add(Task("produce", TaskKind.DENSE_COMPUTE,
                          body=timed(2.0, "produce"), signals=("ready",)))
        consumer = graph.lane("consumer")
        consumer.add(
            Task("consume", TaskKind.EXPERT_COMPUTE, waits=("ready",),
                 body=timed(1.0, "consume"), signals=("done",)),
            Task("finish", TaskKind.GATE, waits=("done", "ready")),
        )
        graph.declare_outputs("done")
        for lane in graph.lanes:
            env.process(run_lane(graph, lane), name=lane.name)
        env.run()
        assert order == [("produce", 0.0), ("consume", 2.0)]
        assert env.now == 3.0

    def test_observer_books_only_traced_bodies(self):
        env = Environment()
        graph = TaskGraph(env)
        seen = []

        def body():
            yield env.timeout(1.5)

        lane = graph.lane("w")
        lane.add(
            Task("worked", TaskKind.EXPERT_COMPUTE, body=body),
            Task("silent", TaskKind.GATE, body=lambda: None),
            Task("bodyless", TaskKind.GATE),
        )
        env.process(run_lane(
            graph, lane, observer=lambda t, s, e: seen.append((t.name, s, e))
        ))
        env.run()
        assert seen == [("worked", 0.0, 1.5)]


class TestExport:
    def _graph(self):
        graph = TaskGraph()
        graph.lane("lane-a", role="worker", worker=0).add(
            _task('quo"ted', kind="dense-compute", signals=("x",))
        )
        graph.lane("lane-b", role="collector").add(_task("sink", waits=("x",)))
        return graph

    def test_to_json_structure(self):
        doc = self._graph().to_json()
        assert doc["schema"] == "janus-repro/taskgraph/v1"
        assert doc["num_tasks"] == 2
        assert [lane["role"] for lane in doc["lanes"]] == [
            "worker", "collector"
        ]
        assert ['quo"ted', "sink"] in doc["edges"]

    def test_to_dot_escapes_and_clusters(self):
        dot = self._graph().to_dot()
        assert "subgraph cluster_0" in dot
        assert 'quo\\"ted' in dot  # quotes escaped for graphviz
        assert "t0 -> t1;" in dot


def _engine(mode, **kwargs):
    return engine_for(
        mode, small_config(), small_cluster(),
        rng=np.random.default_rng(0), imbalance=0.3, **kwargs,
    )


class TestEngineGraphs:
    @pytest.mark.parametrize("mode", sorted(strategy_names()) + ["unified"])
    def test_builtin_paradigm_graphs_validate(self, mode):
        graph = _engine(mode).build_graph()
        graph.validate()
        kinds = {task.kind for task in graph.tasks()}
        assert TaskKind.DENSE_COMPUTE in kinds

    def test_forward_only_graph_has_no_collectors(self):
        graph = _engine("expert-centric").build_graph(forward_only=True)
        graph.validate()
        assert not [l for l in graph.lanes if l.role == "collector"]

    def test_microbatch_graph_has_lane_per_micro_batch(self):
        features = JanusFeatures(micro_batches=3)
        engine = _engine("microbatch-ec", features=features)
        graph = engine.build_graph()
        graph.validate()
        workers = [l for l in graph.lanes if l.role == "worker"]
        assert len(workers) == 3 * engine.workload.world_size

    def test_mixed_micro_and_rendezvous_graph_validates(self):
        """A micro-batched engine with a non-micro-capable block builds the
        full-batch rendezvous (gather on lane 0, release to siblings); the
        graph must still be a clean DAG with no orphan signals."""
        engine = _engine(
            "microbatch-ec", features=JanusFeatures(micro_batches=3)
        )
        engine.block_strategies[max(engine.block_strategies)] = "data-centric"
        graph = engine.build_graph()
        graph.validate()
        rendezvous = [t for t in graph.tasks() if ".gather" in t.name]
        assert rendezvous, "expected a full-batch rendezvous gather task"

    def test_allreduce_graphs_validate(self):
        for mode in ("serial", "overlap"):
            features = JanusFeatures(grad_allreduce=mode)
            graph = _engine("expert-centric", features=features).build_graph()
            graph.validate()
            kinds = [t.kind for t in graph.tasks()]
            assert TaskKind.GRAD_ALLREDUCE in kinds


class TestSchedulerGuards:
    def test_feature_validation(self):
        with pytest.raises(ValueError):
            JanusFeatures(micro_batches=0)
        with pytest.raises(ValueError):
            JanusFeatures(grad_allreduce="sometimes")

    def test_micro_batches_inert_for_non_micro_strategies(self):
        features = JanusFeatures(micro_batches=4)
        base = _engine("expert-centric").run_iteration()
        micro = _engine("expert-centric", features=dataclasses.replace(
            features, micro_batches=4
        )).run_iteration()
        assert micro.seconds == base.seconds
