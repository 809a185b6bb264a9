"""Traffic accounting: the emulated runtime against §5.1.3's closed forms."""

import numpy as np
import pytest

from repro.core import comm_data_centric, comm_expert_centric
from repro.runtime import (
    CommLog,
    CommRecord,
    DataCentricMoE,
    ExpertCentricMoE,
    ExpertPlacement,
    RankLayout,
)
from repro.tensorlib import Tensor
from tests.helpers import (
    intra_machine_bytes,
    machine_egress_bytes,
    machine_ingress_bytes,
    pulled_expert_count,
    total_bytes,
)

HIDDEN = 16
DTYPE_BYTES = 4


class TestRankLayout:
    def test_machine_mapping(self):
        layout = RankLayout(3, 4)
        assert layout.world_size == 12
        assert layout.machine_of(7) == 1
        assert layout.local_rank_of(7) == 3
        assert layout.ranks_of_machine(2) == [8, 9, 10, 11]

    def test_same_machine(self):
        layout = RankLayout(2, 4)
        assert layout.same_machine(0, 3)
        assert not layout.same_machine(3, 4)

    def test_bounds(self):
        layout = RankLayout(2, 2)
        with pytest.raises(ValueError):
            layout.machine_of(4)
        with pytest.raises(ValueError):
            layout.ranks_of_machine(2)
        with pytest.raises(ValueError):
            RankLayout(0, 2)


class TestExpertPlacement:
    def test_contiguous_ownership(self):
        placement = ExpertPlacement(8, 4)
        assert placement.experts_per_worker == 2
        assert placement.owner(0) == 0
        assert placement.owner(5) == 2
        assert placement.experts_of(3) == (6, 7)

    def test_uneven_rejected(self):
        with pytest.raises(ValueError):
            ExpertPlacement(10, 4)

    def test_bounds(self):
        placement = ExpertPlacement(4, 2)
        with pytest.raises(ValueError):
            placement.owner(4)
        with pytest.raises(ValueError):
            placement.experts_of(2)


class TestCommLog:
    def test_record_and_totals(self):
        layout = RankLayout(2, 2)
        log = CommLog(layout)
        log.record("dispatch", 0, 3, 100)  # cross machine
        log.record("dispatch", 0, 1, 50)   # same machine
        assert total_bytes(log) == 150
        assert log.cross_machine_bytes() == 100

    def test_kind_filters(self):
        layout = RankLayout(2, 2)
        log = CommLog(layout)
        log.record("dispatch", 0, 2, 10)
        log.record("expert_pull", 2, 0, 20)
        assert total_bytes(log, ["dispatch"]) == 10
        assert total_bytes(log, ["expert_pull"]) == 20

    def test_machine_egress_ingress(self):
        layout = RankLayout(2, 2)
        log = CommLog(layout)
        log.record("dispatch", 0, 2, 10)
        log.record("dispatch", 3, 1, 30)
        np.testing.assert_allclose(machine_egress_bytes(log), [10, 30])
        np.testing.assert_allclose(machine_ingress_bytes(log), [30, 10])

    def test_rank_matrix(self):
        layout = RankLayout(1, 3)
        log = CommLog(layout)
        log.record("combine", 1, 2, 5)
        log.record("combine", 1, 2, 7)
        matrix = log.rank_matrix()
        assert matrix[1, 2] == 12
        assert matrix.sum() == 12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CommRecord("gossip", 0, 1, 5)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            CommRecord("dispatch", 0, 1, -5)

    def test_intra_machine_bytes(self):
        layout = RankLayout(2, 2)
        log = CommLog(layout)
        log.record("expert_pull", 0, 1, 7)   # same machine, different rank
        log.record("expert_pull", 0, 2, 11)  # cross machine
        log.record("expert_pull", 1, 1, 13)  # rank to itself: no movement
        assert intra_machine_bytes(log) == 7
        assert intra_machine_bytes(log, ["grad_push"]) == 0
        assert log.cross_machine_bytes() == 11
        assert total_bytes(log) == 31


def run_iteration(executor, layout, tokens_per_worker=64, seed=0):
    rng = np.random.default_rng(seed)
    tokens = [
        Tensor(rng.standard_normal((tokens_per_worker, HIDDEN)))
        for _ in range(layout.world_size)
    ]
    outputs = executor.run(tokens)
    loss = None
    for out in outputs:
        term = (out * out).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    executor.finish_backward()
    return executor


class TestDataCentricTraffic:
    def test_each_machine_pulls_each_external_expert_once(self):
        """The hierarchical cache invariant (§5.1.2): one cross-machine pull
        per (machine, external expert) regardless of how many local workers
        need the expert."""
        layout = RankLayout(2, 4)
        executor = DataCentricMoE(
            HIDDEN, 8, 4, layout, dtype_bytes=DTYPE_BYTES,
            rng=np.random.default_rng(1),
        )
        run_iteration(executor, layout, tokens_per_worker=256)
        cross = executor.comm_log.cross_machine_bytes(["expert_pull"])
        # 2 machines x 4 external experts each, one pull per pair.
        expected = 2 * 4 * executor.expert_bytes
        assert cross == pytest.approx(expected)

    def test_forward_traffic_matches_comm_dc_formula(self):
        layout = RankLayout(2, 4)
        executor = DataCentricMoE(
            HIDDEN, 8, 4, layout, dtype_bytes=DTYPE_BYTES,
            rng=np.random.default_rng(1),
        )
        run_iteration(executor, layout, tokens_per_worker=256)
        per_machine = machine_ingress_bytes(executor.comm_log, ["expert_pull"])
        expected = comm_data_centric(
            hidden_dim=HIDDEN,
            experts_per_worker=1,
            workers_per_machine=4,
            num_machines=2,
            dtype_bytes=DTYPE_BYTES,
        )
        np.testing.assert_allclose(per_machine, expected)

    def test_grad_push_once_per_machine_expert(self):
        layout = RankLayout(2, 2)
        executor = DataCentricMoE(
            HIDDEN, 4, 2, layout, dtype_bytes=DTYPE_BYTES,
            rng=np.random.default_rng(1),
        )
        run_iteration(executor, layout, tokens_per_worker=128)
        cross = executor.comm_log.cross_machine_bytes(["grad_push"])
        # Each machine pushes gradients for the 2 external experts it pulled.
        assert cross == pytest.approx(2 * 2 * executor.expert_bytes)

    def test_backward_traffic_equals_forward_traffic(self):
        """§5.1.3: DC backward volume equals forward volume."""
        layout = RankLayout(2, 2)
        executor = DataCentricMoE(
            HIDDEN, 4, 2, layout, rng=np.random.default_rng(1)
        )
        run_iteration(executor, layout, tokens_per_worker=128)
        log = executor.comm_log
        assert log.cross_machine_bytes(["grad_push"]) == pytest.approx(
            log.cross_machine_bytes(["expert_pull"])
        )

    def test_workload_balanced_across_machines(self):
        """Every machine sends/receives the same expert volume (§3.2)."""
        layout = RankLayout(4, 2)
        executor = DataCentricMoE(
            HIDDEN, 8, 2, layout, rng=np.random.default_rng(1)
        )
        run_iteration(executor, layout, tokens_per_worker=256)
        egress = machine_egress_bytes(executor.comm_log, ["expert_pull"])
        assert np.allclose(egress, egress[0])


class TestExpertCentricTraffic:
    def test_dispatch_traffic_tracks_token_routing(self):
        layout = RankLayout(2, 2)
        executor = ExpertCentricMoE(
            HIDDEN, 4, 2, layout, dtype_bytes=DTYPE_BYTES,
            rng=np.random.default_rng(1),
        )
        tokens_per_worker = 64
        run_iteration(executor, layout, tokens_per_worker=tokens_per_worker)
        log = executor.comm_log
        dispatch = total_bytes(log, ["dispatch"])
        # Every routed slot that leaves its worker costs one token payload.
        total_slots = layout.world_size * tokens_per_worker * 2  # k=2
        # All slots except those landing on their own worker are shipped.
        decisions = executor.last_decisions
        placement = executor.placement
        kept = 0
        for rank, decision in enumerate(decisions):
            plan = decision.dispatch_plan()
            for expert in placement.experts_of(rank):
                kept += plan.count(expert)
        expected = (total_slots - kept) * executor.token_bytes
        assert dispatch == pytest.approx(expected)

    def test_combine_equals_dispatch(self):
        layout = RankLayout(2, 2)
        executor = ExpertCentricMoE(
            HIDDEN, 4, 2, layout, rng=np.random.default_rng(1)
        )
        run_iteration(executor, layout, tokens_per_worker=64)
        log = executor.comm_log
        assert total_bytes(log, ["combine"]) == pytest.approx(
            total_bytes(log, ["dispatch"])
        )

    def test_backward_mirror_volumes(self):
        layout = RankLayout(2, 2)
        executor = ExpertCentricMoE(
            HIDDEN, 4, 2, layout, rng=np.random.default_rng(1)
        )
        run_iteration(executor, layout, tokens_per_worker=64)
        log = executor.comm_log
        assert total_bytes(log, ["dispatch_grad"]) == pytest.approx(
            total_bytes(log, ["combine"])
        )
        assert total_bytes(log, ["combine_grad"]) == pytest.approx(
            total_bytes(log, ["dispatch"])
        )

    def test_cross_machine_close_to_formula_lower_bound(self):
        """With near-balanced routing, measured EC cross-node traffic is
        close to (and at least of the order of) the balanced formula."""
        layout = RankLayout(2, 4)
        executor = ExpertCentricMoE(
            HIDDEN, 8, 2, layout, dtype_bytes=DTYPE_BYTES,
            rng=np.random.default_rng(1),
        )
        tokens_per_worker = 512
        run_iteration(executor, layout, tokens_per_worker=tokens_per_worker)
        measured = executor.comm_log.cross_machine_bytes(
            ["dispatch", "combine"]
        ) / layout.num_machines
        # The formula takes T = tokens*k routed slots per worker.
        expected = comm_expert_centric(
            hidden_dim=HIDDEN,
            tokens_per_worker=tokens_per_worker * 2,
            workers_per_machine=4,
            num_machines=2,
            dtype_bytes=DTYPE_BYTES,
        )
        assert measured == pytest.approx(expected, rel=0.25)


class TestParadigmComparison:
    def test_dc_moves_less_when_r_large(self):
        """Large T, small H*E: data-centric should win on wires."""
        layout = RankLayout(2, 2)
        ec = ExpertCentricMoE(HIDDEN, 4, 2, layout, rng=np.random.default_rng(1))
        dc = DataCentricMoE(HIDDEN, 4, 2, layout, rng=np.random.default_rng(2))
        dc.import_state(ec.export_state())
        run_iteration(ec, layout, tokens_per_worker=2048)
        run_iteration(dc, layout, tokens_per_worker=2048)
        assert (
            dc.comm_log.cross_machine_bytes()
            < 0.25 * ec.comm_log.cross_machine_bytes()
        )

    def test_ec_moves_less_when_r_small(self):
        """Few tokens, many experts: expert-centric should win on wires."""
        layout = RankLayout(2, 2)
        ec = ExpertCentricMoE(HIDDEN, 16, 2, layout, rng=np.random.default_rng(1))
        dc = DataCentricMoE(HIDDEN, 16, 2, layout, rng=np.random.default_rng(2))
        dc.import_state(ec.export_state())
        run_iteration(ec, layout, tokens_per_worker=8)
        run_iteration(dc, layout, tokens_per_worker=8)
        assert (
            ec.comm_log.cross_machine_bytes()
            < dc.comm_log.cross_machine_bytes()
        )


class TestCacheAttributionAndPooling:
    """Regression battery for the cache-hit attribution fix: the worker
    that fills the machine cache stays the machine's grad_push sender, no
    matter how many same-machine workers hit the cache afterwards."""

    def _executor(self):
        # top_k == num_experts makes routing deterministic: every worker
        # uses every expert.  One machine, three workers, one expert each:
        # every fetch of a non-resident expert is intra-machine.
        layout = RankLayout(1, 3)
        executor = DataCentricMoE(
            HIDDEN, 3, 3, layout, dtype_bytes=DTYPE_BYTES,
            rng=np.random.default_rng(1),
        )
        return layout, executor

    def test_grad_push_sent_by_fill_rank_not_last_reader(self):
        layout, executor = self._executor()
        run_iteration(executor, layout, tokens_per_worker=4)
        pushes = [
            record for record in executor.comm_log.records
            if record.kind == "grad_push"
        ]
        # Fill ranks: rank 0 filled experts 1 and 2, rank 1 filled expert 0
        # (rank 0 owns it).  The last readers were ranks 2, 1 and 2 — the
        # pre-fix senders — so any of these flipping means the attribution
        # regressed.
        assert {(push.src_rank, push.dst_rank) for push in pushes} == {
            (0, 1),  # expert 1 home
            (0, 2),  # expert 2 home
            (1, 0),  # expert 0 home
        }

    def test_cache_hits_chain_through_previous_reader(self):
        layout, executor = self._executor()
        run_iteration(executor, layout, tokens_per_worker=4)
        pulls = [
            (record.src_rank, record.dst_rank)
            for record in executor.comm_log.records
            if record.kind == "expert_pull"
        ]
        # Rank 0: fills experts 1 and 2.  Rank 1: fills expert 0, then hits
        # expert 2 (served by previous reader 0).  Rank 2: hits expert 0
        # (served by 1) and expert 1 (served by 0).
        assert pulls == [(1, 0), (2, 0), (0, 1), (0, 1), (1, 2), (0, 2)]

    def test_census_and_totals_unchanged_by_attribution(self):
        """The fix only re-attributes grad_push endpoints: the pull census
        and the aggregate byte totals stay what they were."""
        layout, executor = self._executor()
        run_iteration(executor, layout, tokens_per_worker=4)
        log = executor.comm_log
        assert pulled_expert_count(executor) == 3
        assert total_bytes(log, ["expert_pull"]) == pytest.approx(
            6 * executor.expert_bytes
        )
        assert total_bytes(log, ["grad_push"]) == pytest.approx(
            3 * executor.expert_bytes
        )
        # Single machine: everything is intra-machine traffic.
        assert log.cross_machine_bytes() == 0
        assert intra_machine_bytes(log) == pytest.approx(total_bytes(log))

    def test_replica_pool_reused_across_iterations(self):
        layout, executor = self._executor()
        run_iteration(executor, layout, tokens_per_worker=4)
        first_pool = dict(executor._replica_pool)
        assert len(first_pool) == 3
        run_iteration(executor, layout, tokens_per_worker=4, seed=1)
        # Same module objects: later iterations only refresh weights.
        assert {
            key: id(replica) for key, replica in executor._replica_pool.items()
        } == {key: id(replica) for key, replica in first_pool.items()}

    def test_invalidate_replicas_drops_pool(self):
        layout, executor = self._executor()
        run_iteration(executor, layout, tokens_per_worker=4)
        # Hold the old replicas: a freed object's id can be reused.
        first = dict(executor._replica_pool)
        executor.invalidate_replicas()
        assert executor._replica_pool == {}
        run_iteration(executor, layout, tokens_per_worker=4, seed=1)
        second = executor._replica_pool
        assert set(first) == set(second)
        assert all(first[key] is not second[key] for key in first)

    def test_import_state_invalidates_pool(self):
        layout, executor = self._executor()
        run_iteration(executor, layout, tokens_per_worker=4)
        assert executor._replica_pool
        executor.import_state(executor.export_state())
        assert executor._replica_pool == {}
