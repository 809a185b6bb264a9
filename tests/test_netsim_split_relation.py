"""Metamorphic relation R4: splitting a flow in two changes no finish time.

On a bare :class:`~repro.netsim.FluidNetwork`, one flow of ``S`` bytes on
the two-link path ``(s0, s1)`` is replaced by two flows of ``a`` and
``S - a`` bytes on the same path, started at the same instant.  The path
carries no other flow: max-min fairness is per flow, so against a
competitor two flows would take two shares where one flow takes one.
Alone, the whole flow moves at the path's bottleneck ``C``; the halves
share ``C`` until the first finishes and the other then takes all of it,
so the later half finishes when the whole flow would have, and each link
of the path carries ``S`` bytes either way.  No reference solver is
involved: the relation checks coalescing (the halves are one path group
of two flows) against the network's own single-flow run.

Background flows on links disjoint from the path arrive and finish while
the split flows are in flight, so other path groups change mid-flight,
every re-solve advances the split flows' bytes, and the compiled fill
resumes around an unchanged group.  Every re-solve of both runs is
certified (:func:`tests.conftest.certified`).

Tolerance, derived from the byte updates.  A flow's bytes change only in
``remaining -= rate * dt``, at most once per simulated instant (the first
update of an instant sets the last update to now), and every instant in
which the network changes ends with a re-solve; so a run with ``k``
re-solves makes at most ``k`` updates.  With ``u = 2**-53`` and the
clock below ``T``, one update is off by at most ``u*S`` from the
subtraction, ``u*S`` from the product (the bytes moved are below ``S``)
and ``u*C*T`` from ``dt = now - last``, which is one rounded subtraction
of clock readings below ``T``.  A flow also retires with up to
``eps*S + eps`` bytes left (the retirement rule, ``eps = 1e-12``).  So a
run's bytes per flow are off by at most ``B = k*u*(2*S + C*T) + eps*S +
eps``, and its finish time by ``B/C`` plus ``u*T`` for each of at most
``k`` armed timers (``now + eta``) and ``u*T`` for each ETA quotient:
``B/C + 2*k*u*T``.  The relation compares two runs, so the bound is the
sum of both runs' bounds, plus ``u*S`` for rounding ``a + (S - a)``.  A
link's counter adds the moved bytes once per update and flow, each sum
rounded by at most ``u*S``: ``2*k*u*S`` more per run.
"""

import numpy as np
import pytest

from repro.netsim import FluidNetwork
from repro.netsim.fluid import _EPSILON
from repro.simkit import Environment
from tests import reference
from tests.conftest import COMPILED, certified, kernel_id

KERNELS = (COMPILED, reference) if COMPILED else (reference,)

_U = 2.0 ** -53
_SPLIT_PATH = ("s0", "s1")
_BACKGROUND_LINKS = ("b0", "b1", "b2")


def _scenario(seed):
    """Capacities, the whole flow's start and size, the split point and a
    background schedule of (start, path, size) on the disjoint links."""
    rng = np.random.default_rng(seed)
    capacities = {link: float(10.0 ** rng.uniform(3, 9))
                  for link in _SPLIT_PATH + _BACKGROUND_LINKS}
    clock = float(rng.choice([0.0, 1e3, 3.3e8]))
    bottleneck = min(capacities[link] for link in _SPLIT_PATH)
    size = float(10.0 ** rng.uniform(2, 12))
    start = clock + float(rng.uniform(0.0, 1.0)) * size / bottleneck
    head = size * float(rng.uniform(0.02, 0.98))
    life = size / bottleneck
    background = []
    for _ in range(int(rng.integers(4, 12))):
        hops = rng.choice(len(_BACKGROUND_LINKS), size=int(rng.integers(1, 3)),
                          replace=False)
        path = tuple(_BACKGROUND_LINKS[hop] for hop in sorted(hops))
        at = start + float(rng.uniform(-0.5, 1.2)) * life
        background.append((max(at, clock), path,
                           float(10.0 ** rng.uniform(0, 12))))
    return capacities, clock, start, (head, size - head), background


def _run(kernel, capacities, clock, start, sizes, background):
    """Run the scenario with the flows of ``sizes`` on the split path;
    returns their finish times, the path's link bytes, the re-solve
    count and the final clock."""
    env = Environment(clock)
    net = FluidNetwork(env)
    net._kernel = kernel
    for link, capacity in capacities.items():
        net.add_link(link, capacity)
    certified(net)
    resolves = [0]
    recompute = net._recompute

    def counted():
        resolves[0] += 1
        recompute()

    net._recompute = counted
    flows = []

    def send(at, path, sizes):
        yield env.timeout(at - env.now)
        flows.extend(net.transfer(path, size) for size in sizes)

    for at, path, size in background:
        env.process(send(at, path, [size]))
    split = []

    def send_split():
        yield env.timeout(start - env.now)
        split.extend(net.transfer(_SPLIT_PATH, size) for size in sizes)

    env.process(send_split())
    env.run()
    assert all(flow.done.processed for flow in split + flows)
    return (
        [flow.completed_at for flow in split],
        [net.link_bytes[link] for link in _SPLIT_PATH],
        resolves[0],
        env.now,
    )


@pytest.mark.parametrize("kernel", KERNELS, ids=kernel_id)
@pytest.mark.parametrize("seed", range(16))
def test_a_split_flow_finishes_with_the_whole(kernel, seed):
    capacities, clock, start, halves, background = _scenario(seed)
    size = halves[0] + halves[1]
    whole_done, whole_bytes, k_whole, t_whole = _run(
        kernel, capacities, clock, start, (size,), background
    )
    split_done, split_bytes, k_split, t_split = _run(
        kernel, capacities, clock, start, halves, background
    )
    bottleneck = min(capacities[link] for link in _SPLIT_PATH)
    clock_bound = max(t_whole, t_split, 1.0)

    def bytes_off(k):
        return k * _U * (2 * size + bottleneck * clock_bound) + (
            _EPSILON * size + _EPSILON
        )

    def time_off(k):
        return bytes_off(k) / bottleneck + 2 * k * _U * clock_bound

    time_tolerance = time_off(k_whole) + time_off(k_split) + _U * size / bottleneck
    assert abs(max(split_done) - whole_done[0]) <= time_tolerance
    byte_tolerance = (
        bytes_off(k_whole) + 2 * bytes_off(k_split)
        + 2 * (k_whole + 2 * k_split) * _U * size + _U * size
    )
    for whole, split in zip(whole_bytes, split_bytes):
        assert abs(whole - size) <= bytes_off(k_whole) + 2 * k_whole * _U * size
        assert abs(split - whole) <= byte_tolerance
    # Background flows really did change the population mid-flight.
    assert k_split > 2


@pytest.mark.parametrize("kernel", KERNELS, ids=kernel_id)
def test_a_competitor_breaks_the_relation(kernel):
    # Why the split path must carry no other flow: against one
    # competitor on s0, the whole flow gets half of s0 and the two halves
    # get two thirds, so the split flow finishes earlier.
    capacities = {"s0": 100.0, "s1": 1000.0, "b0": 100.0, "b1": 100.0,
                  "b2": 100.0}
    done = {}
    for sizes in ((300.0,), (150.0, 150.0)):
        env = Environment()
        net = FluidNetwork(env)
        net._kernel = kernel
        for link, capacity in capacities.items():
            net.add_link(link, capacity)
        net.transfer(("s0",), 1e6)
        flows = [net.transfer(_SPLIT_PATH, size) for size in sizes]
        env.run(until=flows[-1].done)
        done[len(sizes)] = max(flow.completed_at for flow in flows)
    assert done[1] == pytest.approx(6.0) and done[2] == pytest.approx(4.5)
