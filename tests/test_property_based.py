"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, Device, MachineSpec
from repro.core import (
    comm_data_centric,
    comm_expert_centric,
    gain_ratio,
    internal_pull_order,
    pcie_peer_schedule,
)
from repro.core.memory_model import MemoryEstimate, check_fits
from repro.netsim import FluidNetwork, OutOfMemoryError
from repro.runtime import ExpertPlacement, RankLayout
from repro.simkit import Environment
from repro.tensorlib import Tensor
from repro.tensorlib import functional as F
from repro.workloads import balanced_assignment
from tests.helpers import scatter_rows

machines = st.integers(min_value=2, max_value=8)
workers = st.integers(min_value=1, max_value=16)
dims = st.integers(min_value=1, max_value=4096)


class TestParadigmFormulaProperties:
    @given(
        batch=st.integers(1, 2048),
        seq=st.integers(1, 4096),
        k=st.integers(1, 8),
        n=machines,
        hidden=st.integers(64, 8192),
        experts=st.integers(1, 16),
        m=workers,
    )
    @settings(max_examples=60)
    def test_r_equals_formula_ratio(self, batch, seq, k, n, hidden, experts, m):
        """R must equal Comm_EC / Comm_DC for every parameterization."""
        tokens = batch * seq * k
        ratio = comm_expert_centric(hidden, tokens, m, n) / comm_data_centric(
            hidden, experts, m, n
        )
        assert ratio == pytest.approx(
            gain_ratio(batch, seq, k, n, hidden, experts)
        )

    @given(
        batch=st.integers(1, 2048),
        seq=st.integers(1, 4096),
        k=st.integers(1, 8),
        n=machines,
        hidden=st.integers(64, 8192),
        experts=st.integers(1, 16),
    )
    @settings(max_examples=60)
    def test_r_is_positive(self, batch, seq, k, n, hidden, experts):
        assert gain_ratio(batch, seq, k, n, hidden, experts) > 0


class TestPriorityProperties:
    @given(
        m=st.integers(2, 16),
        experts=st.integers(1, 8),
        staggered=st.booleans(),
    )
    @settings(max_examples=60)
    def test_pull_order_is_exactly_the_foreign_slots(self, m, experts, staggered):
        for rank in range(m):
            order = internal_pull_order(rank, m, experts, staggered=staggered)
            own = set(range(rank * experts, (rank + 1) * experts))
            assert set(order) == set(range(m * experts)) - own
            assert len(order) == len(set(order))

    @given(m=st.integers(2, 16), experts=st.integers(1, 4))
    @settings(max_examples=40)
    def test_staggered_orders_never_collide(self, m, experts):
        """At every schedule position, all workers pull from distinct
        owners (the Fig. 7b guarantee)."""
        orders = [internal_pull_order(r, m, experts) for r in range(m)]
        positions = len(orders[0])
        for position in range(positions):
            owners = [orders[r][position] // experts for r in range(m)]
            assert len(set(owners)) == m

    @given(
        count=st.integers(0, 40),
        lane=st.integers(0, 7),
        enabled=st.booleans(),
    )
    @settings(max_examples=60)
    def test_peer_schedule_covers_all_experts_once(self, count, lane, enabled):
        experts = list(range(100, 100 + count))
        schedule = pcie_peer_schedule(experts, lane, enabled=enabled)
        assert sorted(step.expert for step in schedule) == experts

    @given(count=st.integers(1, 40), lane=st.integers(0, 7))
    @settings(max_examples=40)
    def test_peer_schedule_splits_pcie_load_nearly_evenly(self, count, lane):
        schedule = pcie_peer_schedule(list(range(count)), lane)
        pcie = sum(1 for step in schedule if step.via == "pcie")
        assert abs(pcie - count / 2) <= 1


class TestLayoutProperties:
    @given(n=machines, m=workers)
    @settings(max_examples=40)
    def test_rank_round_trip(self, n, m):
        layout = RankLayout(n, m)
        for rank in range(layout.world_size):
            machine = layout.machine_of(rank)
            local = layout.local_rank_of(rank)
            assert rank in layout.ranks_of_machine(machine)
            assert machine * m + local == rank

    @given(
        world=st.integers(1, 64),
        per_worker=st.integers(1, 8),
    )
    @settings(max_examples=40)
    def test_placement_partitions_experts(self, world, per_worker):
        placement = ExpertPlacement(world * per_worker, world)
        seen = []
        for rank in range(world):
            seen.extend(placement.experts_of(rank))
        assert sorted(seen) == list(range(world * per_worker))
        for expert in range(world * per_worker):
            assert expert in placement.experts_of(placement.owner(expert))


class TestClusterRoutingProperties:
    @given(
        n=st.integers(1, 4),
        gpus=st.sampled_from([2, 4, 8]),
        data=st.data(),
    )
    @settings(max_examples=40)
    def test_routes_are_short_and_direction_consistent(self, n, gpus, data):
        cluster = Cluster(n, MachineSpec(num_gpus=gpus))
        devices = list(cluster.gpus()) + [
            Device.host(machine) for machine in range(n)
        ]
        src = data.draw(st.sampled_from(devices))
        dst = data.draw(st.sampled_from(devices))
        if src.kind == "host" and dst.kind == "host" and src == dst:
            return
        try:
            path = cluster.route(src, dst)
        except ValueError:
            # host->host same machine is undefined; everything else routes.
            assert src.kind == dst.kind == "host" and src.machine == dst.machine
            return
        assert len(path) <= 2
        if src == dst:
            assert path == []
        else:
            assert path[0].machine == src.machine
            assert path[-1].machine == dst.machine


class TestFluidProperties:
    @given(sizes=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_shared_link_conserves_bytes_and_matches_total_time(self, sizes):
        """All flows on one link: finish time == total bytes / bandwidth,
        and the link's byte counter equals the total."""
        env = Environment()
        net = FluidNetwork(env)
        net.add_link("l", 1000.0)
        flows = [net.transfer(("l",), size) for size in sizes]

        def driver():
            for flow in flows:
                yield flow.done

        env.run(until=env.process(driver()))
        assert env.now == pytest.approx(sum(sizes) / 1000.0, rel=1e-6)
        assert net.link_bytes["l"] == pytest.approx(sum(sizes), rel=1e-6)

    @given(
        sizes=st.lists(st.floats(1.0, 1e6), min_size=2, max_size=8),
        bandwidths=st.lists(st.floats(10.0, 1e4), min_size=2, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_link_path_bounded_by_bottleneck(self, sizes, bandwidths):
        env = Environment()
        net = FluidNetwork(env)
        net.add_link("a", bandwidths[0])
        net.add_link("b", bandwidths[1])
        flows = [net.transfer(("a", "b"), size) for size in sizes]

        def driver():
            for flow in flows:
                yield flow.done

        env.run(until=env.process(driver()))
        bottleneck = min(bandwidths)
        assert env.now == pytest.approx(sum(sizes) / bottleneck, rel=1e-6)


class TestMemoryProperties:
    @given(
        capacity=st.floats(1.0, 1e12),
        fractions=st.lists(st.floats(0.0, 0.4), min_size=4, max_size=4),
    )
    @settings(max_examples=60)
    def test_check_fits_rejects_exactly_the_overflowing_term(
        self, capacity, fractions
    ):
        terms = [fraction * capacity for fraction in fractions]
        used = 0.0
        overflow = None
        for term in terms:
            if term > capacity - used:
                overflow = (term, capacity - used)
                break
            used += term
        if overflow is None:
            check_fits(MemoryEstimate(*terms), capacity)
            assert used <= capacity
        else:
            with pytest.raises(OutOfMemoryError) as excinfo:
                check_fits(MemoryEstimate(*terms), capacity)
            assert (excinfo.value.requested,
                    excinfo.value.available) == overflow


class TestWorkloadProperties:
    @given(slots=st.integers(0, 100000), experts=st.integers(1, 128))
    @settings(max_examples=60)
    def test_balanced_assignment_invariants(self, slots, experts):
        counts = balanced_assignment(slots, experts)
        assert counts.sum() == slots
        assert counts.max() - counts.min() <= 1
        assert len(counts) == experts


class TestTensorProperties:
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        seed=st.integers(0, 10000),
    )
    @settings(max_examples=40)
    def test_softmax_rows_always_sum_to_one(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((rows, cols)) * 10)
        probs = F.softmax(x).numpy()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        seed=st.integers(0, 10000),
    )
    @settings(max_examples=40)
    def test_gather_scatter_adjoint(self, shape, seed):
        """<scatter(x), y> == <x, gather(y)> — the dispatch/combine pair
        used by the MoE layer is a true adjoint pair."""
        rng = np.random.default_rng(seed)
        rows, dim = shape
        index = rng.integers(0, rows, size=rows + 2)
        x = rng.standard_normal((rows + 2, dim))
        y = rng.standard_normal((rows, dim))
        scattered = scatter_rows(rows, index, Tensor(x)).numpy()
        gathered = Tensor(y)[index].numpy()
        assert np.vdot(scattered, y) == pytest.approx(np.vdot(x, gathered))
