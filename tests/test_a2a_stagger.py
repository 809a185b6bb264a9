"""Intra-All-to-All chunk scheduling over the arbitrated NIC fabric.

Covers the lane-construction pass (:func:`apply_a2a_stagger` priorities
and counts, micro-round parsing), the claim export in ``describe()``, the
executor's priority-arbitration path on a hand-built graph, and the
engine-level semantics: ``a2a_stagger="off"`` is the untouched legacy
fluid model (bit-identical, no fabric claims), while ``wave`` and
``chain`` serialize chunk grants through one
:class:`~repro.simkit.PriorityResource` slot without moving a traffic
byte.
"""

import numpy as np
import pytest

from repro.core import (
    NIC_FABRIC_RESOURCE,
    JanusFeatures,
    ResourceClaim,
    Task,
    TaskGraph,
    TaskKind,
    apply_a2a_stagger,
    engine_for,
    run_lane,
)
from repro.core.taskgraph import chunk_round
from repro.simkit import Environment, PriorityResource

from tests.conftest import small_cluster, small_config


def _engine(mode="microbatch-ec", features=None, seed=0):
    return engine_for(
        mode,
        small_config(),
        small_cluster(),
        rng=np.random.default_rng(seed),
        imbalance=0.3,
        features=features,
        check_memory=False,
    )


def _chunk_tasks(graph):
    return [t for t in graph.tasks() if t.kind is TaskKind.A2A_CHUNK]


def _fabric_claims(task):
    return [c for c in task.claims if c.resource == NIC_FABRIC_RESOURCE]


class TestChunkRound:
    def test_micro_suffix_parses(self):
        task = Task("t", kind="a2a-chunk", detail="fwd:mb3")
        assert chunk_round(task) == 3

    def test_no_suffix_is_round_zero(self):
        assert chunk_round(Task("t", kind="a2a-chunk")) == 0
        assert chunk_round(
            Task("t", kind="a2a-chunk", detail="dispatch")
        ) == 0
        # The round marker must terminate the detail string.
        assert chunk_round(
            Task("t", kind="a2a-chunk", detail="mb2:combine")
        ) == 0


class TestApplyStagger:
    def test_wave_claims_every_chunk_at_equal_priority(self):
        features = JanusFeatures(micro_batches=4)
        graph = _engine(features=features).build_graph()
        chunks = _chunk_tasks(graph)
        assert chunks, "schedule under test must emit A2A chunks"
        annotated = apply_a2a_stagger(graph, "wave")
        assert annotated == len(chunks)
        for task in chunks:
            (claim,) = _fabric_claims(task)
            assert claim.priority == 0.0
            assert claim.mode == "scoped"

    def test_chain_priorities_follow_the_micro_round(self):
        features = JanusFeatures(micro_batches=4)
        graph = _engine(features=features).build_graph()
        apply_a2a_stagger(graph, "chain")
        priorities = set()
        for task in _chunk_tasks(graph):
            (claim,) = _fabric_claims(task)
            assert claim.priority == float(chunk_round(task))
            priorities.add(claim.priority)
        assert priorities == {0.0, 1.0, 2.0, 3.0}

    def test_non_chunk_tasks_are_untouched(self):
        graph = _engine(features=JanusFeatures(micro_batches=4)).build_graph()
        apply_a2a_stagger(graph, "wave")
        for task in graph.tasks():
            if task.kind is not TaskKind.A2A_CHUNK:
                assert not _fabric_claims(task)

    def test_unknown_policy_is_rejected(self):
        graph = _engine().build_graph()
        with pytest.raises(ValueError, match="stagger policy"):
            apply_a2a_stagger(graph, "random")

    def test_default_build_carries_no_fabric_claims(self):
        """a2a_stagger='off' (the default) must leave graphs exactly as
        before the pass existed: no claims, no priorities in the export."""
        graph = _engine(features=JanusFeatures(micro_batches=4)).build_graph()
        for task in graph.tasks():
            assert not _fabric_claims(task)
            for claim in task.describe()["claims"]:
                assert "priority" not in claim

    def test_staggered_build_exports_the_priorities(self):
        features = JanusFeatures(micro_batches=4, a2a_stagger="chain")
        graph = _engine(features=features).build_graph()
        exported = [
            claim
            for task in _chunk_tasks(graph)
            for claim in task.describe()["claims"]
            if claim["resource"] == NIC_FABRIC_RESOURCE
        ]
        assert exported
        assert all("priority" in claim for claim in exported)


class TestPrioritizedClaim:
    def test_priority_is_optional_and_descriptive_by_default(self):
        claim = ResourceClaim("nic.0")
        assert claim.priority is None

    def test_describe_emits_priority_only_when_set(self):
        bare = Task("t", kind="a2a-chunk", claims=(ResourceClaim("r"),))
        assert bare.describe()["claims"] == [
            {"resource": "r", "mode": "scoped"}
        ]
        ranked = Task(
            "u", kind="a2a-chunk",
            claims=(ResourceClaim("r", priority=2.0),),
        )
        assert ranked.describe()["claims"] == [
            {"resource": "r", "mode": "scoped", "priority": 2.0}
        ]


class TestExecutorArbitration:
    def _race(self, priorities, arbitrated=True):
        """Three equal-length transfers released together; return their
        completion order and times under the given claim priorities."""
        env = Environment()
        graph = TaskGraph(env)
        done = []
        for index, priority in enumerate(priorities):
            name = f"xfer{index}"

            def body(tag=name):
                yield env.timeout(1.0)
                done.append((tag, env.now))

            graph.lane(f"lane{index}").add(
                Task(
                    name,
                    kind="a2a-chunk",
                    body=body,
                    claims=(
                        ResourceClaim(
                            NIC_FABRIC_RESOURCE, priority=priority
                        ),
                    ),
                )
            )
        arbiters = (
            {NIC_FABRIC_RESOURCE: PriorityResource(env)}
            if arbitrated
            else None
        )
        for lane in graph.lanes:
            env.process(run_lane(graph, lane, arbiters=arbiters))
        env.run()
        return done, env.now

    def test_claims_serialize_the_fabric(self):
        done, now = self._race([0.0, 0.0, 0.0])
        assert now == 3.0
        assert [t for _, t in done] == [1.0, 2.0, 3.0]

    def test_lower_priority_value_wins_the_queue(self):
        """The first grant goes by arrival (all request at t=0 in lane
        order), but the queued requests drain lowest priority first."""
        done, _ = self._race([2.0, 1.0, 0.0])
        assert [tag for tag, _ in done] == ["xfer0", "xfer2", "xfer1"]

    def test_without_arbiters_claims_are_descriptive(self):
        done, now = self._race([2.0, 1.0, 0.0], arbitrated=False)
        assert now == 1.0
        assert [t for _, t in done] == [1.0, 1.0, 1.0]


class TestEngineSemantics:
    def _seconds(self, stagger, mode="microbatch-ec", micro=4, seed=0):
        features = JanusFeatures(micro_batches=micro, a2a_stagger=stagger)
        result = _engine(mode, features=features, seed=seed).run_iteration()
        return result

    def test_off_is_bit_identical_to_default(self):
        bare = _engine(features=JanusFeatures(micro_batches=4))
        explicit = _engine(
            features=JanusFeatures(micro_batches=4, a2a_stagger="off")
        )
        a, b = bare.run_iteration(), explicit.run_iteration()
        assert (a.seconds, a.sim_events) == (b.seconds, b.sim_events)
        assert tuple(a.nic_egress_bytes) == tuple(b.nic_egress_bytes)

    def test_arbitration_changes_time_not_traffic(self):
        off = self._seconds("off")
        for policy in ("wave", "chain"):
            run = self._seconds(policy)
            assert run.seconds != off.seconds
            assert [round(b) for b in run.nic_egress_bytes] == [
                round(b) for b in off.nic_egress_bytes
            ]

    def test_bad_stagger_value_rejected(self):
        with pytest.raises(ValueError, match="a2a_stagger"):
            JanusFeatures(a2a_stagger="ripple")
