"""Coalescing equivalence battery.

Flow coalescing collapses concurrent flows sharing an interned path
group into one macro-flow row of the water-filling solve, with a
per-member byte ledger (tombstoned retirement).  The acceptance bar is
*exact* equivalence, not approximate: under any interleaving of
arrivals, departures and mid-flight capacity rescales, the coalesced
network must hand every flow the same IEEE-754 rate, finish it at the
same simulated time, and account the same per-link bytes as the
uncoalesced reference, which runs the numpy kernel, fills over every
link and compacts after every retirement.  The same bar applies to the
two kernels of ``repro.netsim._waterfill``, compared directly: the
compiled one against numpy, step by step.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import FluidNetwork
from repro.netsim import _waterfill
from repro.simkit import Environment
from tests.conftest import certified

NUMPY = _waterfill.NUMPY
COMPILED = None if _waterfill.kernel() is NUMPY else _waterfill.kernel()
# Every kernel this host runs; the first one is what networks default to.
KERNELS = (COMPILED, NUMPY) if COMPILED else (NUMPY,)
needs_compiler = pytest.mark.skipif(
    COMPILED is None, reason="no C compiler on this host"
)


def _network(env, kernel=None, coalesce=True):
    """A network pinned to ``kernel`` (default: the one it would pick)."""
    net = FluidNetwork(env, coalesce=coalesce)
    if kernel is not None:
        net._kernel = kernel
    return net


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


def _run_schedule(schedule, coalesce, kernel=None):
    """Replay one schedule; return (rate log, finish times, link bytes).

    The rate log snapshots every active flow's rate after each operation
    settles, keyed by arrival order, so a divergence is caught at the
    instant it appears rather than washed out by completions.
    """
    links, ops, gaps = schedule
    env = Environment()
    net = certified(_network(env, kernel, coalesce))
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


@needs_compiler
@settings(max_examples=40, deadline=None)
@given(schedules())
def test_compiled_kernel_equals_python_solver_exactly(schedule):
    compiled = _run_schedule(schedule, coalesce=True, kernel=COMPILED)
    assert compiled == _run_schedule(schedule, coalesce=True, kernel=NUMPY)


class _Unusable:
    """Stands in for the compiled kernel: every method raises."""

    def __getattr__(self, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"the compiled kernel's {name} was called")
        return refuse


_GUARD_SCHEDULE = (
    [("l0", 100.0), ("l1", 40.0), ("l2", 250.0)],
    [
        ("arrive", [0, 1], 300.0),
        ("arrive", [0], 120.0),
        ("arrive", [1, 2], 80.0),
        ("rescale", 1, 10.0),
        ("arrive", [2], 500.0),
        ("arrive", [0, 1], 300.0),
        ("rescale", 0, 400.0),
    ],
    [0.0, 0.5, 0.0, 1.0, 0.25, 0.0, 2.0],
)


def test_reference_runs_no_compiled_code(monkeypatch):
    monkeypatch.setattr(_waterfill, "kernel", _Unusable)
    rate_log, finish_times, link_bytes = _run_schedule(
        _GUARD_SCHEDULE, coalesce=False
    )
    assert None not in finish_times and rate_log[-1]
    assert link_bytes["l0"] == pytest.approx(300.0 + 120.0 + 300.0)
    # The swap is in force: a coalesced network does reach for it.
    with pytest.raises(AssertionError, match="compiled kernel"):
        _run_schedule(_GUARD_SCHEDULE, coalesce=True)


def _fire_timer(net):
    """Fire the network's live completion timer now, through the entry
    point its timers call; return the flows it finished, in row order."""
    flows = net.active_flows
    net._on_timer_event(SimpleNamespace(_value=net._generation))
    return [flow for flow in flows if flow.done.triggered]


def _retire_now(net, flows):
    """Tombstone ``flows`` through the network's own completion timer."""
    net._remaining[[flow._row for flow in flows]] = 0.0
    _fire_timer(net)


def _fleet_network(seed, kernel=None):
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
    net = _network(env, kernel)
    for index in rng.permutation(len(links)):
        net.add_link(*links[index])
    rng.shuffle(paths)
    count = int(rng.integers(1, 4))
    retired = []
    for path in paths:
        flows = [net.transfer(path, 1.0) for _ in range(count)]
        if rng.random() < 0.35:
            retired.extend(flows)
    _retire_now(net, retired)
    return env, net


def _fill_with(kernel, net):
    """One fresh water-fill of ``net``'s current population by ``kernel``
    (with an empty round log: every round scans)."""
    num_groups = net._num_groups
    net._ensure_csr()
    tables = kernel.tables(
        capacity=net._capacity, load_counts=net._load_counts,
        group_paths=net._group_paths, group_count=net._group_count,
        csr=net._csr_groups, starts=net._csr_starts,
        **_waterfill.fill_arrays(net._num_links, num_groups),
    )
    grates = np.empty(num_groups)
    _waterfill.run(kernel, net._num_links, num_groups, tables, grates)
    return grates


@pytest.mark.parametrize("seed", range(12))
def test_compiled_kernel_equals_python_solver_at_fleet_shape(seed):
    _, net = _fleet_network(seed)
    gcount = net._group_count[:net._num_groups]
    assert net._num_links >= 150 and (gcount == 0).any()
    # The loaded-links fill of each kernel and the every-link fill of the
    # uncoalesced reference.  Groups with no flows are skipped by the
    # compiled kernel; no rate reads them.
    populated = gcount > 0
    fills = {
        _fill_with(kernel, net)[populated].tobytes()
        for kernel in KERNELS + (_waterfill.REFERENCE,)
    }
    assert len(fills) == 1


@needs_compiler
@pytest.mark.parametrize("seed", range(6))
def test_compiled_advance_equals_numpy_path(seed):
    dt = 0.5
    outcomes = []
    for kernel in KERNELS:
        env, net = _fleet_network(seed, kernel)
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
            net._advance()
            ledgers.append(
                (remaining.tobytes(), net._link_bytes[:net._num_links].tobytes())
            )
            rates[:] = 0.0  # second pass: nothing moves, nothing changes
            remaining[::5] = -0.0
        outcomes.append(ledgers)
    assert outcomes[0] == outcomes[1]


# -- round replay of the compiled water-fill -------------------------------
#
# The compiled fill logs each round's bottleneck and share key, and the
# next fill takes a logged round without the argmin scan while nothing
# that changed since can displace it.  Each case below fills once, makes
# one change, and fills again; the replay must stop at the round the
# change reaches, and every fill must equal a fresh numpy fill.


def _replay_network(links, groups):
    """A network on the compiled kernel with ``links`` (name -> capacity,
    in index order) and ``count`` one-byte flows on each path of
    ``groups``; the clock never runs.  Returns it and its flows by
    path."""
    net = _network(Environment(), COMPILED)
    for name, capacity in links.items():
        net.add_link(name, capacity)
    flows = {}
    _arrive(net, flows, groups)
    return net, flows


def _arrive(net, flows, groups):
    for path, count in groups.items():
        flows.setdefault(path, []).extend(
            net.transfer(path, 1.0) for _ in range(count)
        )


def _check_fill(net, grates):
    """``grates``, the network's own fill, must give every populated
    group a fresh numpy fill's rate, bit for bit.  Returns that fill's
    (rounds, replayed rounds)."""
    populated = net._group_count[:net._num_groups] > 0
    fresh = _fill_with(NUMPY, net)
    assert grates[populated].tobytes() == fresh[populated].tobytes()
    rounds, _, replayed = net._fill_arrays["meta"][:3]
    return int(rounds), int(replayed)


def _checked_fill(net):
    """Fill ``net`` into its own group-rate array, as a re-solve does,
    and check the fill."""
    net._ensure_csr()
    _waterfill.run(net._kernel, net._num_links, net._num_groups,
                   net._solve_tables, net._grates)
    return _check_fill(net, net._grates[:net._num_groups])


def _change_none(net, flows):
    pass


def _change_bottleneck(net, flows):
    # Round 1's bottleneck A loses flows: its share rises.
    _retire_now(net, [flows[("A",)].pop() for _ in range(2)])


def _change_undercut(net, flows):
    # C is round 2's bottleneck; new flows pull its share below round 1's.
    _arrive(net, flows, {("C",): 8})


def _change_tie(net, flows):
    # C (a lower index than B) now ties round 1's share 1000/7 exactly.
    _arrive(net, flows, {("C",): 2})


def _change_nan(net, flows):
    # X's capacity is NaN (written straight into the table: the public
    # API rejects it); a flow on X gives it a NaN share, which sorts
    # below every share and ends the fill.
    net._capacity[net._index["X"]] = np.nan
    _arrive(net, flows, {("X",): 1})


def _change_drained(net, flows):
    # Round 1's bottleneck A loses every flow: it is no longer listed.
    _retire_now(net, flows.pop(("A",)))


def _change_new_group(net, flows):
    # A group interned after the logged fill crosses C and undercuts.
    _arrive(net, flows, {("A", "C"): 8})


def _change_capacity(net, flows):
    # No group changes, but A's capacity does: the log is discarded.
    net.set_capacity("A", 1000.0)


_Z = {("Z",): 1}  # round 0 everywhere: an unchanged round to replay
_REPLAY_CASES = {
    "none": (
        {"Z": 10.0, "A": 100.0, "B": 300.0},
        {**_Z, ("A",): 2, ("A", "B"): 2, ("B",): 2},
        _change_none, 3,
    ),
    "changed_bottleneck": (
        {"Z": 10.0, "A": 100.0, "B": 300.0},
        {**_Z, ("A",): 2, ("A", "B"): 2, ("B",): 2},
        _change_bottleneck, 1,
    ),
    "undercut": (
        {"Z": 10.0, "B": 300.0, "C": 500.0},
        {**_Z, ("B",): 2, ("B", "C"): 2, ("C",): 2},
        _change_undercut, 1,
    ),
    "tie": (
        {"C": 1000.0, "B": 1000.0, "Z": 10.0},
        {**_Z, ("C",): 3, ("B",): 5, ("B", "C"): 2},
        _change_tie, 1,
    ),
    "nan": (
        {"Z": 10.0, "B": 300.0, "X": 100.0},
        {**_Z, ("B",): 4},
        _change_nan, 0,
    ),
    "drained": (
        {"Z": 10.0, "A": 100.0, "B": 300.0},
        {**_Z, ("A",): 4, ("B",): 4},
        _change_drained, 1,
    ),
    "new_group": (
        {"Z": 10.0, "A": 1000.0, "B": 300.0, "C": 500.0},
        {**_Z, ("B",): 2, ("B", "C"): 2, ("C",): 2},
        _change_new_group, 1,
    ),
    "capacity": (
        {"Z": 10.0, "A": 100.0, "B": 300.0},
        {**_Z, ("A",): 2, ("A", "B"): 2, ("B",): 2},
        _change_capacity, 0,
    ),
}


@needs_compiler
@pytest.mark.parametrize("case", list(_REPLAY_CASES))
def test_replay_stops_where_the_change_reaches(case):
    links, groups, change, replayed = _REPLAY_CASES[case]
    net, flows = _replay_network(links, groups)
    rounds, first = _checked_fill(net)
    assert first == 0 and rounds >= 2
    change(net, flows)
    assert _checked_fill(net)[1] == replayed


@needs_compiler
@pytest.mark.parametrize("seed", range(4))
def test_replay_at_fleet_shape(seed, monkeypatch):
    # The network's own timers retire the population instant by instant;
    # every fill on the way is checked against a fresh numpy fill.
    env, net = _fleet_network(seed, COMPILED)
    certified(net)
    totals = _checked_solves(net, monkeypatch)
    env.run()
    assert not net.active_flows and len(totals) > 10
    rounds, replayed = np.sum(totals, axis=0)
    assert replayed > rounds / 2


# Resume across several fills: the fill rolls the logged fill back to its
# first changed round, so what a fill leaves behind (its records, its
# links' values, its group-count snapshot) must hold for the next one.
# Each test drives the network's own re-solves and checks every water-fill
# against a fresh numpy fill; ``fills`` collects each one's (rounds,
# rounds kept).


def _checked_solves(net, monkeypatch):
    """Check every water-fill ``net`` runs from now on, through the one
    entry point ``_waterfill.run`` (which the compiled re-solve looks up
    at each call); returns the list their (rounds, rounds not
    recomputed) are appended to."""
    fills = []
    run = _waterfill.run

    def checked_run(kernel, num_links, num_groups, tables, grates):
        run(kernel, num_links, num_groups, tables, grates)
        if tables is net._solve_tables:  # not the check's own fresh fill
            fills.append(_check_fill(net, grates[:num_groups]))

    monkeypatch.setattr(_waterfill, "run", checked_run)
    return fills


def _resume_network(links, groups, monkeypatch):
    """``_replay_network`` with certified re-solves, solved once; returns
    it, its flows by path and its checked fills."""
    net, flows = _replay_network(links, groups)
    certified(net)
    fills = _checked_solves(net, monkeypatch)
    _settle(net.env)
    return net, flows, fills


@needs_compiler
def test_resume_carries_each_delta_into_the_kept_records(monkeypatch):
    # Round 0 fixes Z, round 1 fixes A's groups (touching C), round 2
    # fixes C's.  The second fill changes C past round 1: round 1 and its
    # record of C are kept, and that record's load must take C's delta.
    # The third changes A, rolls round 1 back and restores C from it.
    net, flows, fills = _resume_network(
        {"Z": 10.0, "A": 100.0, "C": 1000.0},
        {**_Z, ("A", "C"): 2, ("A",): 2, ("C",): 2}, monkeypatch,
    )
    _arrive(net, flows, {("C",): 1})
    _settle(net.env)
    _arrive(net, flows, {("A",): 1})
    _settle(net.env)
    assert fills == [(3, 0), (3, 2), (3, 1)]


@needs_compiler
def test_a_reloaded_link_restarts_at_its_capacity(monkeypatch):
    # X drains in round 2 of the first fill, then loses every flow; the
    # capacity change makes the second fill start afresh, which leaves
    # X's values from the first.  The third fill loads X again: X must
    # start at its capacity, not at what the first fill left.
    net, flows, fills = _resume_network(
        {"Z": 10.0, "A": 100.0, "X": 1000.0},
        {**_Z, ("A", "X"): 2, ("A",): 2, ("X",): 2}, monkeypatch,
    )
    _retire_now(net, flows.pop(("A", "X")) + flows.pop(("X",)))
    net.set_capacity("Z", 20.0)
    _settle(net.env)
    _arrive(net, flows, {("X",): 1})
    _settle(net.env)
    assert fills == [(3, 0), (2, 0), (3, 2)]


@needs_compiler
def test_fill_arrays_reallocated_with_the_tables_start_afresh(monkeypatch):
    # Sixteen groups fill the first group table; a seventeenth grows it,
    # and the fill arrays are reallocated with it.  The fill after that
    # starts afresh, and the one after resumes from it.
    links = {"Z": 10.0, **{f"L{i}": 100.0 * (i + 2) for i in range(8)}}
    groups = {**_Z, **{(f"L{i}",): 2 for i in range(8)}}
    groups.update({(f"L{i}", f"L{i + 1}"): 1 for i in range(7)})
    net, flows, fills = _resume_network(links, groups, monkeypatch)
    arrays = net._fill_arrays
    _arrive(net, flows, {("Z", "L7"): 1})
    _settle(net.env)
    assert net._fill_arrays is not arrays
    _arrive(net, flows, {("L7",): 1})
    _settle(net.env)
    assert [kept for _, kept in fills] == [0, 0, fills[2][0] - 1]


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
        # Same group counts before and after the rescale: only the round
        # log's discard on a capacity change keeps the old fill out.
        env, net, flows = self._shared_group_network(coalesce=True)
        before = flows[0].rate
        net.set_capacity("wire", 60.0)
        _settle(env)
        after = flows[0].rate
        assert before == 100.0 / 3
        assert after == 20.0


# -- the instant step (retire / settle) of each kernel ----------------------


def _ledger_network(seed, kernel, now=0.0, capacities=(1e3, 1e9, 2.5e10)):
    """A few shared links, a dozen flows, a third of them tombstoned,
    rates solved; the clock starts at ``now``."""
    rng = np.random.default_rng(seed)
    env = Environment(now)
    net = _network(env, kernel)
    for i in range(4):
        net.add_link(f"l{i}", float(rng.choice(capacities)))
    flows = []
    for k in range(int(rng.integers(8, 16))):
        hops = rng.choice(4, int(rng.integers(1, 3)), replace=False)
        size = float(rng.choice([1e2, 1e6, 1e9]))
        flows.append(net.transfer(tuple(f"l{i}" for i in hops), size, tag=k))
    retired = rng.choice(len(flows), len(flows) // 3, replace=False)
    _retire_now(net, [flows[k] for k in retired])
    net._assign_rates()
    return env, net, rng


def _ledger_state(net):
    n, links, groups = net._n, net._num_links, net._num_groups
    return (
        n, net._dead_count, net._live_count,
        net._remaining[:n].tobytes(), net._rates[:n].tobytes(),
        net._live[:n].tobytes(),
        net._link_bytes[:links].tobytes(),
        net._load_counts[:links].tobytes(),
        net._group_count[:groups].tobytes(),
    )


def _moving(net):
    return np.flatnonzero(net._rates[:net._n] > 0)


def _shape_tombstones(net, rng):
    # Live rows land short of, exactly on, or past zero after the advance.
    rows = _moving(net)
    net._remaining[rows] = net._rates[rows] * 0.5 * rng.choice(
        [0.5, 1.0, 1.0 + 1e-13, 3.0], rows.size
    )
    return 0.5


def _shape_sub_ulp_cohort(net, rng):
    # Every moving row sits above the finish threshold, but some ETAs are
    # below ulp(1e6) / 2: the clock cannot move past them.
    rows = _moving(net)
    sizes, rates = net._sizes[rows], net._rates[rows]
    floor = 4.0 * (1e-12 * sizes + 1e-12)
    net._remaining[rows] = np.maximum(
        floor, rates * rng.choice([1e-14, 1e-12, 1.0], rows.size)
    )
    return 0.0


def _shape_rel_band(net, rng):
    # Above the absolute threshold with representable ETAs, whether or
    # not the remainder is float residue of the size: none retires.
    rows = _moving(net)
    net._remaining[rows] = net._sizes[rows] * rng.choice(
        [5e-10, 2e-9, 1e-3], rows.size
    )
    return 0.0


def _shape_stale_after_rescale(net, rng):
    net.set_capacity("l0", 7.0)
    net._assign_rates()
    rows = _moving(net)
    net._remaining[rows] = net._sizes[rows] * 0.5
    return 0.0


def _shape_tied(net, rng):
    # Equal rates and sub-ppb remainders, above the absolute threshold
    # with representable ETAs: none retires; the timer re-arms.
    rows = _moving(net)
    net._rates[rows] = 1e3
    net._sizes[rows] = 1e9
    net._remaining[rows] = 0.5
    return 0.0


def _shape_nan(net, rng):
    # A NaN rate (its row stops moving) and a NaN remainder on a moving
    # row: a NaN ETA never compares as underflowing, so nothing retires.
    rows = _moving(net)
    net._rates[rows[0]] = np.nan
    net._remaining[rows[1:]] = net._sizes[rows[1:]] * 5e-10
    net._remaining[rows[-1]] = np.nan
    return 0.0


_TIMER_SHAPES = {
    "tombstones": (_shape_tombstones, 0.0),
    "sub_ulp_cohort": (_shape_sub_ulp_cohort, 1e6),
    "rel_band": (_shape_rel_band, 0.0),
    "stale_after_rescale": (_shape_stale_after_rescale, 0.0),
    "tied": (_shape_tied, 0.0),
    "nan": (_shape_nan, 0.0),
}


def _timer_outcome(shape, now, seed, kernel):
    env, net, rng = _ledger_network(seed, kernel, now, capacities=(2.5e10,)
                                    if now else (1e3, 1e9, 2.5e10))
    dt = shape(net, rng)
    net._last_update = env.now - dt
    finished = _fire_timer(net)
    return [flow.tag for flow in finished], _ledger_state(net)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(_TIMER_SHAPES))
def test_compiled_retire_equals_numpy_timer(case, seed):
    shape, now = _TIMER_SHAPES[case]
    outcomes = [_timer_outcome(shape, now, seed, kernel) for kernel in KERNELS]
    assert outcomes[1:] == outcomes[:-1]
    tags, _ = outcomes[0]
    assert tags == sorted(tags)  # rows ascend with arrival order here
    if case in ("stale_after_rescale", "tied", "nan"):
        assert tags == []


def test_rows_within_the_threshold_retire_together():
    # Representable ETAs, but every moving row within eps*size + eps of
    # done: all retire on this timer, not one per round.
    for kernel in KERNELS:
        env, net, _ = _ledger_network(0, kernel)
        rows = _moving(net)
        net._remaining[rows] = 0.5 * (1e-12 * net._sizes[rows] + 1e-12)
        assert env.now + (net._remaining[rows] / net._rates[rows]).min() > 0
        assert len(_fire_timer(net)) == rows.size > 1


def test_sub_ulp_cohort_retires_together():
    for kernel in KERNELS:
        tags, _ = _timer_outcome(_shape_sub_ulp_cohort, 1e6, 0, kernel)
        assert len(tags) > 1


def _admit_first_row(kernel, rng):
    # An empty ledger: the advance before the first row moves nothing.
    env = Environment(1.0)
    net = _network(env, kernel)
    for i in range(4):
        net.add_link(f"l{i}", 100.0)
    return env, net, ("l0",)


def _admit_one_link(kernel, rng):
    env, net, _ = _ledger_network(int(rng.integers(1 << 16)), kernel)
    return env, net, ("l1",)


def _admit_two_links(kernel, rng):
    env, net, _ = _ledger_network(int(rng.integers(1 << 16)), kernel)
    return env, net, ("l2", "l0")


def _solved_network(kernel, rng, paths):
    """One flow per path, a quarter of them tombstoned, rates solved."""
    env = Environment()
    net = _network(env, kernel)
    links = sorted({link for path in paths for link in path})
    for link in links:
        net.add_link(link, float(rng.choice([1e3, 1e9])))
    flows = [
        net.transfer(path, float(rng.choice([1e2, 1e6])), tag=k)
        for k, path in enumerate(paths)
    ]
    _retire_now(net, [flows[k] for k in
                      rng.choice(len(flows), len(flows) // 4, replace=False)])
    net._assign_rates()
    return env, net


def _admit_at_row_growth(kernel, rng):
    # 32 rows fill the row arrays: row 32 grows them.
    paths = [tuple(f"l{i}" for i in rng.choice(4, int(rng.integers(1, 3)),
                                                replace=False))
             for _ in range(32)]
    env, net = _solved_network(kernel, rng, paths)
    assert net._n == net._remaining.shape[0] == 32
    return env, net, ("l3", "l1")


def _admit_at_group_growth(kernel, rng):
    # 16 groups fill the group table: a 17th path grows it.
    pairs = [(f"l{a}", f"l{b}") for a in range(6) for b in range(6) if a != b]
    order = rng.permutation(len(pairs))
    env, net = _solved_network(kernel, rng, [pairs[k] for k in order[:16]])
    assert net._num_groups == net._group_count.shape[0] == 16
    return env, net, pairs[order[16]]


_ADMIT_CASES = {
    "first_row": _admit_first_row,
    "one_link": _admit_one_link,
    "two_links": _admit_two_links,
    "row_growth": _admit_at_row_growth,
    "group_growth": _admit_at_group_growth,
}


def _admit_outcome(case, seed, dt, kernel):
    rng = np.random.default_rng(seed)
    env, net, path = _ADMIT_CASES[case](kernel, rng)
    net._last_update = env.now - dt
    flow = net.transfer(path, 1e6, tag="new")
    row = net._n - 1
    assert net._active[row] is flow and flow._row == row
    assert net._live[row] and net._rates[row] == 0.0
    assert net._remaining[row] == net._sizes[row] == 1e6
    n, groups = net._n, net._num_groups
    return _ledger_state(net) + (
        net._paths[:n].tobytes(), net._sizes[:n].tobytes(),
        net._gids[:n].tobytes(), net._group_paths[:groups].tobytes(),
        net._last_update,
    )


@pytest.mark.parametrize("dt", [0.5, 0.0])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", list(_ADMIT_CASES))
def test_compiled_admit_equals_numpy_arrival(case, seed, dt):
    outcomes = [_admit_outcome(case, seed, dt, kernel) for kernel in KERNELS]
    assert outcomes[1:] == outcomes[:-1]
    if case != "first_row":
        # Tombstoned rows sit in the ledger the arrival advances.
        assert outcomes[0][1] > 0


@needs_compiler
def test_compiled_and_numpy_kernels_expose_the_same_methods():
    """A kernel method added to (or left in) only one kernel fails here."""
    def methods(kernel):
        return sorted(name for name in dir(kernel)
                      if not name.startswith("_")
                      and callable(getattr(kernel, name)))

    assert methods(COMPILED) == methods(NUMPY)
    assert "admit" in methods(NUMPY)


def _settle_outcome(seed, fill, kernel):
    env, net, rng = _ledger_network(seed, kernel)
    grates = rng.random(net._num_groups) * 1e3
    fill(net, grates)
    net._last_update = env.now - 0.5
    eta = net._settle(grates)
    eta = None if eta is None else np.float64(eta).tobytes()
    return eta, _ledger_state(net)


def _fill_plain(net, grates):
    grates[::3] = 0.0


def _fill_none_moving(net, grates):
    grates[:] = 0.0


def _fill_nan_rate(net, grates):
    grates[net._gids[_moving(net)[0]]] = np.nan


def _fill_nan_eta(net, grates):
    net._remaining[_moving(net)[-1]] = np.nan


def _fill_nan_eta_first(net, grates):
    # The first moving row's ETA is NaN: every live row after it must
    # still take its new rate.
    net._remaining[_moving(net)[0]] = np.nan


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "fill", [_fill_plain, _fill_none_moving, _fill_nan_rate, _fill_nan_eta,
             _fill_nan_eta_first],
    ids=lambda fill: fill.__name__[len("_fill_"):],
)
def test_compiled_settle_equals_numpy_reschedule(fill, seed):
    outcomes = [_settle_outcome(seed, fill, kernel) for kernel in KERNELS]
    assert outcomes[1:] == outcomes[:-1]
    eta, _ = outcomes[0]
    if fill is _fill_none_moving:
        assert eta is None
    if fill in (_fill_nan_eta, _fill_nan_eta_first):
        assert np.isnan(np.frombuffer(eta)[0])
