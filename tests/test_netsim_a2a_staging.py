"""The bulk-staged All-to-All creates exactly the flows of the per-pair loop.

``netsim.all_to_all`` stages its flows from per-cluster route tables and
one numpy pass over the send matrix.  ``per_pair_all_to_all`` below is
the per-pair loop it replaced, kept here as the reference: both must
create the same flows (tag, size to the last bit, path, latency) in the
same order, and move the same bytes through every NIC.  Run under
``REPRO_WATERFILL=python`` too, where the flows live on the reference
fluid kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, Device, MachineSpec
from repro.faults import (
    LOSSABLE_MESSAGE_KINDS,
    FaultInjector,
    FaultPlan,
    MessageLoss,
    ServerOutage,
)
from repro.netsim import Fabric, all_to_all
from repro.netsim.collectives import _machine_pair_totals
from repro.simkit import AllOf, Environment


def per_pair_all_to_all(fabric, send_bytes, hierarchical=True):
    """The per-pair staging ``all_to_all`` used before it staged in bulk:
    a ``Fabric.transfer`` per intra-machine pair, a strided block sum and a
    ``nic_route`` lookup per machine pair and NIC."""
    cluster = fabric.cluster
    matrix = np.asarray(send_bytes, dtype=float)
    world = cluster.world_size
    g = cluster.gpus_per_machine
    done_events = []
    for machine in range(cluster.num_machines):
        base = machine * g
        for src_local in range(g):
            for dst_local in range(g):
                if src_local == dst_local:
                    continue
                size = matrix[base + src_local, base + dst_local]
                if size <= 0:
                    continue
                flow = fabric.transfer(
                    Device.gpu(machine, src_local),
                    Device.gpu(machine, dst_local),
                    size,
                    tag=("a2a-intra", machine, src_local, dst_local),
                )
                done_events.append(flow.done)
    if hierarchical:
        num_nics = cluster.spec.num_nics
        for src_machine in range(cluster.num_machines):
            for dst_machine in range(cluster.num_machines):
                if src_machine == dst_machine:
                    continue
                src_base = src_machine * g
                dst_base = dst_machine * g
                total = matrix[
                    src_base : src_base + g, dst_base : dst_base + g
                ].sum()
                if total <= 0:
                    continue
                per_nic = total / num_nics
                for nic in range(num_nics):
                    path, latency, path_index = fabric.nic_route(
                        src_machine, dst_machine, nic
                    )
                    flow = fabric.network.transfer(
                        path,
                        per_nic,
                        latency=latency,
                        tag=("a2a-inter", src_machine, dst_machine, nic),
                        path_index=path_index,
                    )
                    done_events.append(flow.done)
    else:
        for src_rank in range(world):
            src = cluster.gpu_device(src_rank)
            for dst_rank in range(world):
                dst = cluster.gpu_device(dst_rank)
                if src.machine == dst.machine:
                    continue
                size = matrix[src_rank, dst_rank]
                if size <= 0:
                    continue
                flow = fabric.transfer(
                    src, dst, size, tag=("a2a-flat", src_rank, dst_rank),
                )
                done_events.append(flow.done)
    return AllOf(fabric.env, done_events)


def run_staging(stage, cluster, matrices, hierarchical, plan=None):
    """Run ``stage`` over each matrix in turn on a fresh fabric; return the
    created flows as (tag, size hex, path, path index, latency) in creation
    order, every NIC's byte count, and the end time."""
    env = Environment()
    fabric = Fabric(env, cluster)
    if plan is not None:
        FaultInjector(plan, fabric).install()
    flows = []
    transfer = fabric.network.transfer

    def recording(*args, **kwargs):
        flow = transfer(*args, **kwargs)
        flows.append(flow)
        return flow

    fabric.network.transfer = recording

    def driver():
        for matrix in matrices:
            yield stage(fabric, matrix, hierarchical=hierarchical)

    env.run(until=env.process(driver()))
    records = [
        (f.tag, f.size.hex(), f.path, f.path_index, f.latency.hex())
        for f in flows
    ]
    nic_bytes = [
        fabric.nic_bytes(machine, direction).hex()
        for machine in range(cluster.num_machines)
        for direction in ("out", "in")
    ]
    return records, nic_bytes, env.now.hex()


def send_matrix(world, seed, zero_share, scale):
    """A random non-negative send matrix with roughly ``zero_share`` of its
    entries zero (so some machine pairs may send nothing at all)."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((world, world)) * scale
    matrix[rng.random((world, world)) < zero_share] = 0.0
    return matrix


# The layouts the strategies hand over: the dispatch matrix (C order), the
# combine matrix (its transpose, a column-major view) and a nested list.
LAYOUTS = {
    "c": lambda matrix: matrix,
    "transposed": lambda matrix: np.ascontiguousarray(matrix.T).T,
    "list": lambda matrix: matrix.tolist(),
}

GPU_NIC_SHAPES = [
    (gpus, nics) for gpus in (1, 2, 8) for nics in (1, 2, 4) if gpus % nics == 0
]


@settings(max_examples=60, deadline=None)
@given(
    machines=st.integers(1, 4),
    shape=st.sampled_from(GPU_NIC_SHAPES),
    hierarchical=st.booleans(),
    layout=st.sampled_from(sorted(LAYOUTS)),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    scale=st.sampled_from([1.0, 3e5, 7.3e8]),
)
def test_bulk_staging_creates_the_per_pair_flows(
    machines, shape, hierarchical, layout, seed, zero_share, scale
):
    gpus, nics = shape
    cluster = Cluster(
        machines, MachineSpec(num_gpus=gpus, gpus_per_nic=gpus // nics,
                              gpus_per_pcie_switch=1)
    )
    matrix = send_matrix(cluster.world_size, seed, zero_share, scale)
    # Two calls, the second transposed (dispatch then combine), so that a
    # route table reused across calls is exercised too.
    matrices = [LAYOUTS[layout](matrix), LAYOUTS[layout](matrix.T.copy())]
    expected = run_staging(
        per_pair_all_to_all, cluster, matrices, hierarchical
    )
    staged = run_staging(all_to_all, cluster, matrices, hierarchical)
    assert staged[0] == expected[0]
    assert staged[1:] == expected[1:]


@pytest.mark.parametrize("hierarchical", [True, False])
def test_staging_skips_no_fault_the_intercept_would_apply(hierarchical):
    # Losses and outages on every kind a plan accepts: the per-pair loop
    # passed its intra-machine flows through the intercept, which neither
    # dropped one nor drew from the plan's generator for them.
    plan = FaultPlan(seed=3, faults=(
        MessageLoss(kinds=LOSSABLE_MESSAGE_KINDS, rate=1.0),
        ServerOutage(machine=0),
        ServerOutage(machine=1),
    ))
    cluster = Cluster(2)
    matrix = send_matrix(cluster.world_size, 11, 0.2, 1e6)
    expected = run_staging(
        per_pair_all_to_all, cluster, [matrix], hierarchical, plan
    )
    staged = run_staging(all_to_all, cluster, [matrix], hierarchical, plan)
    assert staged == expected


def test_no_a2a_kind_is_lossable():
    """Why the staged All-to-All may skip the fault intercept: no plan can
    name an All-to-All tag, so the intercept passes every one through."""
    for kind in ("a2a-intra", "a2a-inter", "a2a-flat"):
        assert kind not in LOSSABLE_MESSAGE_KINDS
        with pytest.raises(ValueError, match="cannot inject loss"):
            MessageLoss(kinds=(kind,))


@pytest.mark.parametrize("transposed", [False, True])
def test_machine_pair_totals_sum_each_block_as_numpy_does(transposed):
    """The sum order is the contract: each machine pair's total equals the
    per-block ``.sum()`` bit for bit, for C-ordered and transposed input."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        g = int(rng.choice([1, 2, 3, 4, 8]))
        w = n * g
        matrix = rng.random((w, w)) * 10.0 ** rng.integers(-3, 10)
        if transposed:
            matrix = matrix.T
        totals = _machine_pair_totals(matrix, n, g)
        for i in range(n):
            for j in range(n):
                block = matrix[i * g:(i + 1) * g, j * g:(j + 1) * g]
                assert totals[i, j].hex() == block.sum().hex()


def test_route_tables_are_built_at_the_first_all_to_all():
    cluster = Cluster(2)
    Fabric(Environment(), cluster)
    assert cluster._fabric_route_memo[2] is None
    env = Environment()
    fabric = Fabric(env, cluster)
    all_to_all(fabric, send_matrix(cluster.world_size, 5, 0.0, 1.0))
    tables = cluster._fabric_route_memo[2]
    assert tables is not None
    assert Fabric(Environment(), cluster).a2a_routes() is tables
