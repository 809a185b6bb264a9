"""Stateful fuzzer: the fluid network's kernels and its reference in lockstep.

A hypothesis state machine drives three identical ``Environment`` +
``FluidNetwork`` pairs with the same arrivals (1 B to 1 TB, optional
start latency), mid-flight ``set_capacity`` rescales and clock advances:

* a coalesced network on the kernel ``_waterfill.kernel()`` picks (the
  compiled one where it builds, whose water-fill resumes its last fill
  at the first round a changed path group can reach, keeping the rounds
  before it);
* a coalesced network on the numpy kernel, whose water-fill scans every
  round, and whose flows are the pure-python ``PythonFlow`` (the
  compiled network's are the extension's);
* the uncoalesced reference, which fills over every link, scans every
  round and compacts after every retirement.

Eight links give a fill up to eight rounds, so kept prefixes of several
rounds, and rolled-back suffixes, occur.  The clock may start at a large
``now``, where float residue is worst.

Every re-solve of every network is certified
(:meth:`~repro.netsim.FluidNetwork.certify`: feasible rates, and a
bottleneck for every moving flow, checked without the solver).  After
every step all three must agree exactly: every rate, remaining byte
count, start and finish time, every link's byte counter, each
network's completed bytes, the clock and the event count, and the order
in which the flows' ``done`` events fired (flow and time).  Each flow of
the first network also equals its numpy-kernel twin field by field, every
field but ``id``: its slots (the ``done`` event by state, the network
reference by whose it is) and its views.  Live flows keep ``0 <=
remaining <= size``.  At teardown every network drains under
the same hard step budget, so a livelock fails the example instead of
hanging the suite; then every flow must have moved its bytes no faster
than its path allows, and every link's counter must equal the bytes of
the flows that crossed it.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.netsim import FluidNetwork
from repro.netsim import _waterfill
from repro.netsim.fluid import PythonFlow
from repro.simkit import Environment, SimulationError
from tests.conftest import certified

_LINKS = 8
# Steps allowed per in-flight flow while draining, plus a floor: each
# completion costs a timer fire, a done event and an instant-end solve.
_STEPS_PER_FLOW = 40
_STEP_FLOOR = 200

_log_sizes = st.floats(min_value=0.0, max_value=12.0).map(lambda e: 10.0 ** e)
_log_capacities = st.floats(min_value=3.0, max_value=11.0).map(
    lambda e: 10.0 ** e
)


def _step_until(env: Environment, target: float, budget: int) -> int:
    """Step ``env`` through every event due by ``target``; returns the
    steps taken.  Raises AssertionError past ``budget`` steps."""
    steps = 0
    while env.peek() <= target:
        assert steps < budget, (
            f"no progress after {budget} steps at now={env.now!r}"
        )
        steps += 1
        try:
            env.step()
        except SimulationError:
            break  # the instant-end hooks ran and left nothing queued
    if env.now < target < math.inf:
        env.run(until=target)
    return steps


# (kernel to pin, coalesce) per side; None keeps the network's own pick.
_SIDES = ((None, True), (_waterfill.NUMPY, True), (None, False))
# A flow's fields as compared with its reference twin: every slot of the
# Python flow but the id, then the views.
_FIELDS = tuple(
    name for name in PythonFlow.__slots__ if name not in ("id", "done", "_net")
) + ("remaining", "rate", "duration")


def _same_flow(flow, net, twin, twin_net):
    """``flow`` of ``net`` equals ``twin`` of ``twin_net``, field by field."""
    assert type(twin) is PythonFlow
    for name in _FIELDS:
        assert getattr(flow, name) == getattr(twin, name), name
    assert (flow._net is net, flow._net is None) == (
        twin._net is twin_net, twin._net is None
    )
    done, twin_done = flow.done, twin.done
    assert (done.triggered, done.processed) == (
        twin_done.triggered, twin_done.processed
    )
    if done.triggered:
        assert done.value is flow and twin_done.value is twin


class LockstepFluid(RuleBasedStateMachine):
    """One network per entry of ``_SIDES``."""

    @initialize(
        start=st.sampled_from([0.0, 1e3, 1e6, 3.3e8]),
        capacities=st.lists(_log_capacities, min_size=_LINKS, max_size=_LINKS),
    )
    def build(self, start, capacities):
        self.sides = []
        for kernel, coalesce in _SIDES:
            env = Environment(start)
            net = FluidNetwork(env, coalesce=coalesce)
            if kernel is not None:
                net._kernel = kernel
            for index, capacity in enumerate(capacities):
                net.add_link(f"l{index}", capacity)
            self.sides.append((env, certified(net)))
        self.flows = tuple([] for _ in _SIDES)
        self.done_order = tuple([] for _ in _SIDES)
        self.peak_capacity = list(capacities)

    def _each(self, action):
        """Run ``action(env, net, index)`` on every side; returns the
        results."""
        return [
            action(env, net, index)
            for index, (env, net) in enumerate(self.sides)
        ]

    @rule(
        hops=st.lists(
            st.integers(min_value=0, max_value=_LINKS - 1),
            min_size=1, max_size=2, unique=True,
        ),
        size=_log_sizes,
        latency=st.sampled_from([0.0, 0.0, 1e-6, 0.25]),
    )
    def arrive(self, hops, size, latency):
        path = tuple(f"l{index}" for index in hops)

        def start(env, net, index):
            flows = self.flows[index]
            flow = net.transfer(path, size, latency)
            order = self.done_order[index]
            flow.done.callbacks.append(
                lambda event, flow_index=len(flows):
                    order.append((flow_index, env.now))
            )
            flows.append(flow)

        self._each(start)

    @rule(link=st.integers(min_value=0, max_value=_LINKS - 1),
          capacity=_log_capacities)
    def rescale(self, link, capacity):
        self.peak_capacity[link] = max(self.peak_capacity[link], capacity)
        self._each(
            lambda env, net, index: net.set_capacity(f"l{link}", capacity)
        )

    @rule(gap=st.sampled_from([0.0, 1e-9, 1e-3, 0.5, 7.0, 1e4]))
    def advance(self, gap):
        budget = _STEP_FLOOR + _STEPS_PER_FLOW * len(self.flows[0])
        steps = self._each(
            lambda env, net, index: _step_until(env, env.now + gap, budget)
        )
        assert len(set(steps)) == 1

    @invariant()
    def cores_agree_exactly(self):
        if not hasattr(self, "sides"):
            return
        (env_a, net_a), *others = self.sides
        twin_net = self.sides[1][1]
        for flow, twin in zip(self.flows[0], self.flows[1]):
            _same_flow(flow, net_a, twin, twin_net)
        for (env_b, net_b), flows_b in zip(others, self.flows[1:]):
            assert env_a.now == env_b.now
            assert env_a.events_processed == env_b.events_processed
            for flow_a, flow_b in zip(self.flows[0], flows_b):
                assert flow_a.rate == flow_b.rate
                assert flow_a.remaining == flow_b.remaining
                assert flow_a.started_at == flow_b.started_at
                assert flow_a.completed_at == flow_b.completed_at
            links_b = dict(net_b.link_bytes.items())
            assert dict(net_a.link_bytes.items()) == links_b
            assert net_a.total_bytes_completed == net_b.total_bytes_completed
        for order in self.done_order[1:]:
            assert order == self.done_order[0]
        for flow in self.flows[0]:
            if flow.completed_at is None:
                assert 0.0 <= flow.remaining <= flow.size

    def teardown(self):
        if not hasattr(self, "sides"):
            return
        budget = _STEP_FLOOR + _STEPS_PER_FLOW * len(self.flows[0])
        self._each(
            lambda env, net, index: _step_until(env, math.inf, budget)
        )
        self.cores_agree_exactly()
        env, net = self.sides[0]
        # Float residue a completion may leave or overshoot: the finish
        # bands, plus one clock ulp's worth of bytes at the fastest rate.
        slack = 4.0 * max(self.peak_capacity) * math.ulp(max(env.now, 1.0))
        crossing = {f"l{index}": [0.0, 0.0] for index in range(_LINKS)}
        for flow in self.flows[0]:
            assert flow.completed_at is not None
            residue = 1e-9 * flow.size + 1e-12 + slack
            fastest = min(
                self.peak_capacity[int(link[1:])] for link in flow.path
            )
            # Per flow: no faster than the widest its path ever was.
            floor = (flow.size - residue) / fastest
            assert flow.completed_at - flow.started_at >= floor - 2 * math.ulp(
                flow.completed_at
            )
            for link in flow.path:
                crossing[link][0] += flow.size
                crossing[link][1] += residue
        # Per link: the counter equals the bytes of the flows crossing it.
        for link, (expected, tolerance) in crossing.items():
            moved = net.link_bytes[link]
            assert abs(moved - expected) <= tolerance + 1e-12 * expected


LockstepFluid.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


class TestLockstepFluid(LockstepFluid.TestCase):
    pass
