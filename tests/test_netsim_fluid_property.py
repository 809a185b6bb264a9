"""Property test: the incremental water-filling solver is bit-identical
to a from-scratch recompute.

The fluid network maintains packed per-flow state, per-link load counts
and a resumable group fill incrementally as flows join and leave.  The
correctness claim is that none of those shortcuts can ever change a rate:
at any instant, the rates it assigns equal — exactly, not approximately —
what a *fresh* network (empty caches, flows re-added from scratch) would
compute for the same active-path multiset and capacities.

Rates depend only on (path multiset, capacities), so the reference clones
the live network's active paths into a brand-new ``FluidNetwork`` and
runs one cold solve.  Random schedules interleave arrivals on random
one- or two-link paths with mid-flight capacity rescales, which
exercises joins, departures (compaction), the fill's round log across
capacity changes, and the CSR adjacency cache.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import FluidNetwork
from repro.simkit import Environment
from tests import reference
from tests.conftest import COMPILED, certified
from tests.helpers import active_flows
from tests.reference.fluid import assign_rates

# Every kernel this run has: the compiled one, unless the reference cores
# are installed, and the numpy reference.
KERNELS = (COMPILED, reference) if COMPILED else (reference,)


def _build(links, kernel=None):
    env = Environment()
    net = FluidNetwork(env)
    if kernel is not None:
        net._kernel = kernel
    for link_id, bandwidth in links:
        net.add_link(link_id, bandwidth)
    return env, net


def _fresh_rates(links, active):
    """Rates a brand-new network assigns to the same path multiset."""
    _, fresh = _build(links)
    clones = [fresh.transfer(flow.path, 1.0) for flow in active]
    assign_rates(fresh)
    return [clone.rate for clone in clones]


def _settle(env):
    """Drain the zero-delay recompute scheduled at the current instant."""
    env.run(until=env.now)


@st.composite
def schedules(draw):
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
            max_size=12,
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


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_incremental_rates_match_fresh_recompute(schedule):
    # On every kernel, with every re-solve certified.
    for kernel in KERNELS:
        _replay_against_fresh_recomputes(schedule, kernel)


def _replay_against_fresh_recomputes(schedule, kernel):
    links, ops, gaps = schedule
    env, net = _build(links, kernel)
    certified(net)
    for (op, *payload), gap in zip(ops, gaps):
        if gap > 0:
            # Let flows progress (and possibly finish) before the next op.
            env.run(until=min(env.now + gap, env.peek()) if net._n else env.now + gap)
        if op == "arrive":
            indices, size = payload
            net.transfer(tuple(f"l{i}" for i in indices), size)
        else:
            index, bandwidth = payload
            net.set_capacity(f"l{index}", bandwidth)
        _settle(env)
        active = active_flows(net)
        current_links = [(lid, net.capacity(lid)) for lid in net.links()]
        expected = _fresh_rates(current_links, active)
        got = [flow.rate for flow in active]
        assert got == expected  # exact float equality, not approx

    # Drain to completion: every flow must finish (no lost wakeups).
    while active_flows(net):
        env.run(until=env.peek())
        _settle(env)
    assert net._n == 0
