"""Stateful fuzzer: the compiled and the pure-python fluid cores in lockstep.

A hypothesis state machine drives two identical ``Environment`` +
``FluidNetwork`` pairs with the same arrivals (1 B to 1 TB, optional
start latency), mid-flight ``set_capacity`` rescales and clock advances.
One network runs the compiled kernels, the other the numpy loops.  The
clock may start at a large ``now``, where float residue is worst.

After every step the two must agree exactly: every rate, remaining byte
count and finish time, every link's byte counter, the clock and the
event count.  Live flows keep ``0 <= remaining <= size``.  At teardown
both networks drain under a hard step budget, so a livelock fails the
example instead of hanging the suite; then every flow must have moved
its bytes no faster than its path allows, and every link's counter must
equal the bytes of the flows that crossed it.
"""

import math

import pytest
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
from repro.simkit import Environment, SimulationError

from tests.test_netsim_fluid_coalesce import _python_solver

_LINKS = 4
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


class LockstepFluid(RuleBasedStateMachine):
    """Compiled network ``a`` and pure-python network ``b``."""

    @initialize(
        start=st.sampled_from([0.0, 1e3, 1e6, 3.3e8]),
        capacities=st.lists(_log_capacities, min_size=_LINKS, max_size=_LINKS),
    )
    def build(self, start, capacities):
        self.sides = []
        for compiled in (True, False):
            env = Environment(start)
            net = FluidNetwork(env)
            for index, capacity in enumerate(capacities):
                net.add_link(f"l{index}", capacity)
            self.sides.append((env, net, compiled))
        self.flows = ([], [])
        self.peak_capacity = list(capacities)

    def _each(self, action):
        """Run ``action(env, net, index)`` on both sides, the pure-python
        one with the compiled kernels switched off; returns both
        results."""
        results = []
        for index, (env, net, compiled) in enumerate(self.sides):
            if compiled:
                results.append(action(env, net, index))
            else:
                with _python_solver():
                    results.append(action(env, net, index))
        return results

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
            self.flows[index].append(net.transfer(path, size, latency))

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
        assert steps[0] == steps[1]

    @invariant()
    def cores_agree_exactly(self):
        if not hasattr(self, "sides"):
            return
        (env_a, net_a, _), (env_b, net_b, _) = self.sides
        assert env_a.now == env_b.now
        assert env_a.events_processed == env_b.events_processed
        for flow_a, flow_b in zip(*self.flows):
            assert flow_a.rate == flow_b.rate
            assert flow_a.remaining == flow_b.remaining
            assert flow_a.completed_at == flow_b.completed_at
            if flow_a.completed_at is None:
                assert 0.0 <= flow_a.remaining <= flow_a.size
        assert dict(net_a.link_bytes.items()) == dict(net_b.link_bytes.items())

    def teardown(self):
        if not hasattr(self, "sides"):
            return
        budget = _STEP_FLOOR + _STEPS_PER_FLOW * len(self.flows[0])
        self._each(
            lambda env, net, index: _step_until(env, math.inf, budget)
        )
        self.cores_agree_exactly()
        env, net, _ = self.sides[0]
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


@pytest.mark.skipif(
    _waterfill.kernel() is None, reason="no C compiler on this host"
)
class TestLockstepFluid(LockstepFluid.TestCase):
    pass
