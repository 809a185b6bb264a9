"""Coalescing equivalence battery.

Flow coalescing collapses concurrent flows sharing an interned path
group into one macro-flow row of the water-filling solve, with a
per-member byte ledger (tombstoned retirement).  The acceptance bar is
*exact* equivalence, not approximate: under any interleaving of
arrivals, departures and mid-flight capacity rescales, the coalesced
network must hand every flow the same IEEE-754 rate, finish it at the
same simulated time, and account the same per-link bytes as the
uncoalesced solver.  The same bar applies to the compiled water-filling
kernel against the pure-python filling loop.
"""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import FluidNetwork
from repro.netsim import _waterfill
from repro.simkit import Environment


@st.composite
def schedules(draw):
    """Random link tables plus arrival/rescale schedules.

    Paths are drawn from a small pool so several flows routinely share a
    path group — the case coalescing actually batches.
    """
    num_links = draw(st.integers(min_value=2, max_value=5))
    links = [
        (f"l{i}", draw(st.floats(min_value=1.0, max_value=500.0)))
        for i in range(num_links)
    ]
    paths = st.lists(
        st.integers(min_value=0, max_value=num_links - 1),
        min_size=1,
        max_size=2,
        unique=True,
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("arrive"),
                    paths,
                    st.floats(min_value=1.0, max_value=1000.0),
                ),
                st.tuples(
                    st.just("rescale"),
                    st.integers(min_value=0, max_value=num_links - 1),
                    st.floats(min_value=1.0, max_value=500.0),
                ),
            ),
            min_size=1,
            max_size=14,
        )
    )
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0),
            min_size=len(ops),
            max_size=len(ops),
        )
    )
    return links, ops, gaps


def _settle(env):
    env.run(until=env.now)


def _run_schedule(schedule, coalesce):
    """Replay one schedule; return (rate log, finish times, link bytes).

    The rate log snapshots every active flow's rate after each operation
    settles, keyed by arrival order, so a divergence is caught at the
    instant it appears rather than washed out by completions.
    """
    links, ops, gaps = schedule
    env = Environment()
    net = FluidNetwork(env, coalesce=coalesce)
    for link_id, bandwidth in links:
        net.add_link(link_id, bandwidth)
    flows = []
    rate_log = []
    for (op, *payload), gap in zip(ops, gaps):
        if gap > 0:
            until = env.now + gap
            if net._n:
                until = min(until, env.peek())
            env.run(until=until)
        if op == "arrive":
            indices, size = payload
            flows.append(
                net.transfer(tuple(f"l{i}" for i in indices), size)
            )
        else:
            index, bandwidth = payload
            net.set_capacity(f"l{index}", bandwidth)
        _settle(env)
        rate_log.append([flow.rate for flow in flows])
    while net.active_flows:
        env.run(until=env.peek())
        _settle(env)
    finish_times = [flow.completed_at for flow in flows]
    link_bytes = {link_id: net.link_bytes[link_id] for link_id, _ in links}
    return rate_log, finish_times, link_bytes


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_coalesced_equals_uncoalesced_exactly(schedule):
    coalesced = _run_schedule(schedule, coalesce=True)
    plain = _run_schedule(schedule, coalesce=False)
    # Exact float equality on every rate at every instant, every finish
    # time, and every link's byte counter — not approx.
    assert coalesced == plain


@contextmanager
def _python_solver():
    """Force the pure-python filling loops for the duration."""
    original = _waterfill.kernel
    _waterfill.kernel = lambda: None
    try:
        yield
    finally:
        _waterfill.kernel = original


@settings(max_examples=40, deadline=None)
@given(schedules())
def test_compiled_kernel_equals_python_solver_exactly(schedule):
    if _waterfill.kernel() is None:
        return  # no C compiler on this host; the python path is the only one
    compiled = _run_schedule(schedule, coalesce=True)
    with _python_solver():
        plain = _run_schedule(schedule, coalesce=True)
    assert compiled == plain


def _fleet_network(seed):
    """A fleet-shaped flow population, built without running the clock.

    * Hundreds of NIC-like links (an egress and an ingress per machine),
      all of one capacity, carry an all-to-all wave: six rounds of
      machine permutations, every group with the same flow count.  Most
      links then tie on their share, and the tie-break order decides how
      residuals round.  (With random pairs or random counts, a kernel
      that broke ties by list position instead of link index passed on
      most seeds.)
    * Twin links carry exactly the same groups at the same capacity: when
      the lower-index twin is the bottleneck, the other drains to zero
      load at (near) zero residual in the same round.
    * Spur links are wide and only ever crossed together with a NIC link,
      so they drain to zero load once that link is fixed.
    * About a third of the groups lose every flow again (tombstoned), so
      count-0 groups sit inside the CSR rows of loaded links.
    """
    rng = np.random.default_rng(seed)
    machines = int(rng.integers(75, 150))
    links = [
        (f"{side}{machine}", 100.0)
        for side in ("up", "down") for machine in range(machines)
    ]
    paths = [
        (f"up{a}", f"down{b}")
        for _ in range(6)
        for a, b in enumerate(rng.permutation(machines))
    ]
    for k in range(machines // 10):
        capacity = float(rng.choice([100.0, 300.0]))
        links += [(f"t{k}a", capacity), (f"t{k}b", capacity), (f"s{k}", 1e6)]
        paths.append((f"t{k}a", f"t{k}b"))
        paths.extend(
            (f"up{machine}", f"s{k}")
            for machine in rng.integers(0, machines, 3)
        )
    # Link order is the argmin tie-break: interleave the kinds so that
    # the kernel's swap-removes move tied NIC links out of index order.
    env = Environment()
    net = FluidNetwork(env)
    for index in rng.permutation(len(links)):
        net.add_link(*links[index])
    rng.shuffle(paths)
    count = int(rng.integers(1, 4))
    retired = []
    for path in paths:
        flows = [net.transfer(path, 1.0) for _ in range(count)]
        if rng.random() < 0.35:
            retired.extend(flows)
    mask = np.zeros(net._n, dtype=bool)
    mask[[flow._row for flow in retired]] = True
    net._remove_rows(mask)
    return env, net


@pytest.mark.parametrize("seed", range(12))
def test_compiled_kernel_equals_python_solver_at_fleet_shape(seed):
    lib = _waterfill.kernel()
    if lib is None:
        pytest.skip("no C compiler on this host")
    _, net = _fleet_network(seed)
    num_groups = net._num_groups
    gcount = net._group_count[:num_groups]
    assert net._num_links >= 150 and (gcount == 0).any()
    compiled = net._solve_compiled(num_groups, lib)
    reference = net._solve_active(num_groups, gcount)
    # Groups with no flows are skipped by the kernel; no rate reads them.
    populated = gcount > 0
    assert compiled[populated].tobytes() == reference[populated].tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_compiled_advance_equals_numpy_path(seed):
    if _waterfill.kernel() is None:
        pytest.skip("no C compiler on this host")
    dt = 0.5
    outcomes = []
    for solver in (nullcontext, _python_solver):
        env, net = _fleet_network(seed)
        net._assign_rates()
        n = net._n
        rng = np.random.default_rng(seed)
        rates = net._rates[:n]
        remaining = net._remaining[:n]
        # Rows that keep bytes, land exactly on zero, or overshoot and
        # clamp; NaN must propagate and a -0.0 on a tombstoned (rate 0)
        # row must come out +0.0, as np.maximum does.
        remaining[:] = rates * dt * rng.choice([0.5, 1.0, 1.5, 3.0], n)
        remaining[::17] = np.nan
        remaining[rates == 0] = -0.0
        ledgers = []
        for _ in range(2):
            net._last_update = env.now - dt
            with solver():
                net._advance()
            ledgers.append(
                (remaining.tobytes(), net._link_bytes[:net._num_links].tobytes())
            )
            rates[:] = 0.0  # second pass: nothing moves, nothing changes
            remaining[::5] = -0.0
        outcomes.append(ledgers)
    assert outcomes[0] == outcomes[1]


class TestSetCapacityRescale:
    """Coalescing must respect mid-flight ``set_capacity`` rescales."""

    def _shared_group_network(self, coalesce):
        env = Environment()
        net = FluidNetwork(env, coalesce=coalesce)
        net.add_link("wire", 100.0)
        # Three flows in ONE path group: the group's macro-row carries
        # multiplicity 3 through the rescale.
        flows = [net.transfer(("wire",), 300.0) for _ in range(3)]
        _settle(env)
        return env, net, flows

    def test_rescale_rerates_a_coalesced_group(self):
        env, net, flows = self._shared_group_network(coalesce=True)
        assert [flow.rate for flow in flows] == [100.0 / 3] * 3
        env.run(until=1.0)
        net.set_capacity("wire", 30.0)
        _settle(env)
        assert [flow.rate for flow in flows] == [10.0] * 3
        while net.active_flows:
            env.run(until=env.peek())
            _settle(env)
        # 300 bytes each: 100/3 moved in the first second, the rest at
        # 10 B/s after the rescale.
        for flow in flows:
            assert flow.completed_at == 1.0 + (300.0 - 100.0 / 3) / 10.0

    def test_rescale_matches_uncoalesced_exactly(self):
        outcomes = []
        for coalesce in (True, False):
            env, net, flows = self._shared_group_network(coalesce)
            env.run(until=1.0)
            net.set_capacity("wire", 30.0)
            _settle(env)
            rates_after = [flow.rate for flow in flows]
            while net.active_flows:
                env.run(until=env.peek())
                _settle(env)
            outcomes.append(
                (
                    rates_after,
                    [flow.completed_at for flow in flows],
                    net.link_bytes["wire"],
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_rescale_epoch_invalidates_solve_memo(self):
        # Same group signature before and after the rescale: only the
        # capacity epoch distinguishes the cache keys.
        env, net, flows = self._shared_group_network(coalesce=True)
        before = flows[0].rate
        net.set_capacity("wire", 60.0)
        _settle(env)
        after = flows[0].rate
        assert before == 100.0 / 3
        assert after == 20.0
