"""Unit tests for the fluid max-min network model."""

from types import SimpleNamespace

import pytest

from repro.netsim import FluidNetwork
from repro.netsim import _waterfill, fluid
from repro.simkit import Environment
from tests import reference
from tests.conftest import COMPILED, kernel_id
from tests.helpers import active_flows


def make_net(links):
    env = Environment()
    net = FluidNetwork(env)
    for link_id, bandwidth in links.items():
        net.add_link(link_id, bandwidth)
    return env, net


def fire_timer(net):
    """Fire the network's live completion timer now, through the entry
    point its timers call."""
    net._on_timer_event(SimpleNamespace(_value=net._generation))


def run_flows(env, net, specs):
    """Start flows per spec list [(path, size, latency)] and run to done."""
    flows = [net.transfer(path, size, latency) for path, size, latency in specs]

    def driver():
        for flow in flows:
            yield flow.done

    env.run(until=env.process(driver()))
    return flows


def test_single_flow_duration_is_size_over_bandwidth():
    env, net = make_net({"l": 100.0})
    (flow,) = run_flows(env, net, [(("l",), 1000.0, 0.0)])
    assert flow.completed_at == pytest.approx(10.0)


def test_latency_is_added_once_before_transfer():
    env, net = make_net({"l": 100.0})
    (flow,) = run_flows(env, net, [(("l",), 1000.0, 2.5)])
    assert flow.completed_at == pytest.approx(12.5)


def test_two_flows_share_a_link_fairly():
    env, net = make_net({"l": 100.0})
    flows = run_flows(
        env, net, [(("l",), 1000.0, 0.0), (("l",), 1000.0, 0.0)]
    )
    # Both progress at 50 B/s and complete together at t=20.
    for flow in flows:
        assert flow.completed_at == pytest.approx(20.0)


def test_short_flow_finishes_then_long_flow_speeds_up():
    env, net = make_net({"l": 100.0})
    flows = run_flows(
        env, net, [(("l",), 400.0, 0.0), (("l",), 1000.0, 0.0)]
    )
    # Shared until t=8 (400B each at 50B/s); then the long flow runs at
    # 100 B/s for its remaining 600B -> done at t=14.
    assert flows[0].completed_at == pytest.approx(8.0)
    assert flows[1].completed_at == pytest.approx(14.0)


def test_bottleneck_is_path_minimum():
    env, net = make_net({"fast": 1000.0, "slow": 10.0})
    (flow,) = run_flows(env, net, [(("fast", "slow"), 100.0, 0.0)])
    assert flow.completed_at == pytest.approx(10.0)


def test_max_min_gives_unbottlenecked_flow_the_residual():
    # Flow A crosses links X and Y; flow B crosses only X.
    # X has 100, Y has 30. A is limited to 30 by Y; B gets 70 on X.
    env, net = make_net({"x": 100.0, "y": 30.0})
    flows = run_flows(
        env, net, [(("x", "y"), 300.0, 0.0), (("x",), 700.0, 0.0)]
    )
    assert flows[0].completed_at == pytest.approx(10.0)
    assert flows[1].completed_at == pytest.approx(10.0)


def test_staggered_arrivals_reallocate_rates():
    env, net = make_net({"l": 100.0})
    flow_a = net.transfer(("l",), 1000.0)

    def late_start(results):
        yield env.timeout(5)
        flow_b = net.transfer(("l",), 250.0)
        yield flow_b.done
        results.append(flow_b)

    results = []
    env.process(late_start(results))

    def driver():
        yield flow_a.done

    env.run(until=env.process(driver()))
    # A runs alone 0-5 (500B), shares 5-10 (250B), alone after.
    flow_b = results[0]
    assert flow_b.completed_at == pytest.approx(10.0)
    assert flow_a.completed_at == pytest.approx(12.5)


def test_zero_size_transfer_completes_after_latency():
    env, net = make_net({"l": 100.0})
    (flow,) = run_flows(env, net, [(("l",), 0.0, 3.0)])
    assert flow.completed_at == pytest.approx(3.0)


def test_empty_path_local_copy():
    env, net = make_net({})
    (flow,) = run_flows(env, net, [((), 1e9, 0.0)])
    assert flow.completed_at == pytest.approx(0.0)


def test_unknown_link_rejected():
    env, net = make_net({"l": 1.0})
    with pytest.raises(KeyError):
        net.transfer(("ghost",), 10.0)


def test_negative_size_rejected():
    env, net = make_net({"l": 1.0})
    with pytest.raises(ValueError):
        net.transfer(("l",), -5.0)


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_bandwidth_rejected(bandwidth):
    env, net = make_net({"l": 1.0})
    with pytest.raises(ValueError, match="bandwidth"):
        net.add_link("m", bandwidth)
    with pytest.raises(ValueError, match="bandwidth"):
        net.set_capacity("l", bandwidth)
    assert net.links() == ["l"] and net.capacity("l") == 1.0


@pytest.mark.parametrize("size, latency", [
    (float("nan"), 0.0),
    (float("inf"), 0.0),
    (10.0, float("inf")),
    (10.0, float("nan")),
    (10.0, -1.0),
])
def test_bad_size_or_latency_rejected(size, latency):
    env, net = make_net({"l": 1.0})
    with pytest.raises(ValueError, match="size|latency"):
        net.transfer(("l",), size, latency)
    assert not active_flows(net) and env.peek() == float("inf")


_NAN, _INF = float("nan"), float("inf")

# A batch input to replace -> (the refused value, the error and its
# message).  Each bad value sits in the batch's last flow.
_BAD_BATCHES = {
    "size negative": ("sizes", -1.0, ValueError,
                      "size must be finite and non-negative, got -1.0"),
    "size nan": ("sizes", _NAN, ValueError,
                 "size must be finite and non-negative, got nan"),
    "size inf": ("sizes", _INF, ValueError,
                 "size must be finite and non-negative, got inf"),
    "latency negative": ("latencies", -1.0, ValueError,
                         "latency must be finite and non-negative, got -1.0"),
    "latency nan": ("latencies", _NAN, ValueError,
                    "latency must be finite and non-negative, got nan"),
    "latency inf": ("latencies", _INF, ValueError,
                    "latency must be finite and non-negative, got inf"),
    "path_index empty": ("path_indices", (), TypeError,
                         "a flow's path_index must be a tuple of one or two "
                         "link indices, not ()"),
    "path_index three links": ("path_indices", (0, 1, 2), TypeError,
                               "a flow's path_index must be a tuple of one "
                               "or two link indices, not (0, 1, 2)"),
    "path_index a list": ("path_indices", [0], TypeError,
                          "a flow's path_index must be a tuple of one or "
                          "two link indices, not [0]"),
    "path_index past the links": ("path_indices", (0, 3), IndexError,
                                  "link 3 is outside [0, 3)"),
    "path_index negative": ("path_indices", (-1,), IndexError,
                            "link -1 is outside [0, 3)"),
    "inputs of two lengths": ("tags", None, ValueError,
                              "stage() got 3 paths but 2 tags"),
}


@pytest.mark.parametrize(
    "kernel", [reference] + ([COMPILED] if COMPILED else []), ids=kernel_id
)
@pytest.mark.parametrize("case", sorted(_BAD_BATCHES))
def test_stage_refuses_a_bad_batch_before_staging_any_flow(case, kernel):
    env, net = make_net({"a": 100.0, "b": 50.0, "c": 10.0})
    net._kernel = kernel
    path, path_index = net.resolve_path(("a", "b"))
    batch = {
        "paths": [path] * 3,
        "path_indices": [path_index] * 3,
        "sizes": [1.0, 0.0, 2.0],
        "latencies": [0.0, 0.5, 0.0],
        "tags": ["x", "y", "z"],
    }
    name, value, error, message = _BAD_BATCHES[case]
    if value is None:
        batch[name] = batch[name][:2]
    else:
        batch[name][-1] = value
    with pytest.raises(error) as refused:
        net._stage(*batch.values())
    assert str(refused.value) == message
    # Nothing of the batch was staged: no row, timer, event or re-solve.
    assert net._n == 0 and not net._recompute_pending
    assert env.peek() == _INF and env.events_processed == 0
    if value is None:
        return
    # The one-flow case refuses it with the same message.
    flow = {key: column[-1] for key, column in batch.items()}
    with pytest.raises(error) as single:
        net.transfer(flow["paths"], flow["sizes"], flow["latencies"],
                     path_index=flow["path_indices"])
    assert str(single.value) == str(refused.value)
    if name != "path_indices":
        with pytest.raises(error) as constructed:
            fluid.Flow(env, path, path_index, flow["sizes"], flow["latencies"])
        assert str(constructed.value) == str(refused.value)
    assert env.peek() == _INF


def test_duplicate_link_rejected():
    env, net = make_net({"l": 1.0})
    with pytest.raises(ValueError):
        net.add_link("l", 2.0)


def test_link_byte_accounting():
    env, net = make_net({"a": 100.0, "b": 100.0})
    run_flows(env, net, [(("a", "b"), 500.0, 0.0), (("a",), 250.0, 0.0)])
    assert net.link_bytes["a"] == pytest.approx(750.0)
    assert net.link_bytes["b"] == pytest.approx(500.0)
    assert net.total_bytes_completed == pytest.approx(750.0)


def test_many_symmetric_flows_complete_together():
    env, net = make_net({f"l{i}": 50.0 for i in range(8)})
    specs = [((f"l{i}",), 500.0, 0.0) for i in range(8)]
    flows = run_flows(env, net, specs)
    for flow in flows:
        assert flow.completed_at == pytest.approx(10.0)


def test_utilization_metric():
    env, net = make_net({"l": 100.0})
    run_flows(env, net, [(("l",), 500.0, 0.0)])
    # 500 bytes over 5 seconds on a 100 B/s link: 100% while active.
    assert net.link_utilization("l", elapsed=5.0) == pytest.approx(1.0)
    assert net.link_utilization("l", elapsed=10.0) == pytest.approx(0.5)


def test_utilization_under_a_rescale_still_open_at_read_time():
    env, net = make_net({"l": 100.0})
    flow = net.transfer(("l",), 120.0)
    env.run(until=1.0)
    net.set_capacity("l", 10.0)
    env.run(until=flow.done)
    # 100 B in the first second, then 20 B at 10 B/s: busy throughout.
    # Against the capacity at read time it would read 120 / (10 * 3) = 4.
    assert flow.completed_at == env.now == pytest.approx(3.0)
    assert net.capacity("l") == 10.0
    assert net.link_utilization("l", elapsed=3.0) == pytest.approx(1.0)
    assert net.link_utilization("l", elapsed=6.0) == pytest.approx(0.5)


def test_utilization_under_a_rescale_closed_before_read_time():
    env, net = make_net({"l": 100.0})
    flow = net.transfer(("l",), 210.0)
    env.run(until=1.0)
    net.set_capacity("l", 10.0)
    env.run(until=2.0)
    net.set_capacity("l", 100.0)
    env.run(until=flow.done)
    # 100 B, then 10 B during the window, then 100 B: busy throughout,
    # against 210 / (100 * 3) = 0.7 at the capacity of read time.
    assert flow.completed_at == env.now == pytest.approx(3.0)
    assert net.link_utilization("l", elapsed=3.0) == pytest.approx(1.0)


def test_paths_longer_than_two_links_rejected():
    env, net = make_net({"a": 1.0, "b": 1.0, "c": 1.0})
    with pytest.raises(ValueError):
        net.transfer(("a", "b", "c"), 10.0)


def test_path_repeating_a_link_rejected():
    # Crossed twice, a link would carry the flow's bytes twice and count
    # it twice in its load.
    env, net = make_net({"a": 10.0, "b": 10.0})
    for path in (("a", "a"), ("b", "b")):
        with pytest.raises(ValueError, match="repeats a link"):
            net.transfer(path, 10.0)
    assert env.peek() == float("inf") and not active_flows(net)
    with pytest.raises(ValueError, match="repeats a link"):
        net.resolve_path(("a", "a"))
    flow = net.transfer(("a", "b"), 10.0)
    env.run(until=flow.done)
    assert flow.completed_at == 1.0 and net.link_bytes["a"] == 10.0


class TestStaleTimerGuard:
    """A timer must never force-finish a flow with real bytes remaining.

    The timer's epsilon fallback exists to absorb floating-point residue
    when the minimum-ETA flow lands microscopically short of zero.
    After a mid-flight ``set_capacity`` rescale the same code path can see
    a flow with *macroscopic* bytes left; it must recompute and re-arm
    instead of declaring the flow done early.
    """

    def test_stale_timer_cannot_force_finish_flow_with_real_bytes(self):
        env, net = make_net({"l": 100.0})
        flow = net.transfer(("l",), 1000.0)
        env.run(until=1.0)
        # Fire the timer callback "early", with the live generation, while
        # 900 bytes are still outstanding (a stale-timer scenario).
        fire_timer(net)
        assert not flow.done.triggered
        assert flow.remaining == pytest.approx(900.0)
        env.run(until=flow.done)
        assert flow.completed_at == pytest.approx(10.0)

    def test_capacity_drop_midflight_completes_at_rescaled_rate(self):
        env, net = make_net({"l": 100.0})
        flow = net.transfer(("l",), 1000.0)

        def chaos():
            yield env.timeout(5.0)
            net.set_capacity("l", 1.0)

        env.process(chaos(), daemon=True)
        # Probe at the pre-drop ETA: the flow must still be moving the
        # bytes the rescale left it with, not force-finished.  (remaining
        # reads the state as of the last recompute, at t=5.)
        probed = {}

        def probe():
            yield env.timeout(10.0)
            probed["remaining"] = flow.remaining
            probed["done"] = flow.done.triggered

        env.process(probe(), daemon=True)
        env.run(until=flow.done)
        assert probed["done"] is False
        assert probed["remaining"] == pytest.approx(500.0)
        # 500 B at 100 B/s, then 500 B at 1 B/s.
        assert flow.completed_at == pytest.approx(505.0)

    def test_fault_window_capacity_drop_regression(self):
        from repro.cluster import Cluster
        from repro.faults import FaultInjector, FaultPlan, LinkFault
        from repro.netsim import Fabric

        env = Environment()
        fabric = Fabric(env, Cluster(2))
        cluster = fabric.cluster
        src = cluster.gpu_device(0)
        dst = cluster.gpu_device(cluster.spec.num_gpus)  # first GPU, machine 1
        path = cluster.route(src, dst)
        latency = fabric.path_latency(path)
        bandwidth = min(fabric.network.capacity(link) for link in path)
        size = 4.0 * bandwidth  # 4 s of transfer at the nominal rate
        # Halve every NIC once half the bytes are through.
        plan = FaultPlan(
            faults=(LinkFault("nic", 0.5, start=latency + 2.0),)
        )
        FaultInjector(plan, fabric).install()
        flow = fabric.transfer(src, dst, size)
        env.run(until=flow.done)
        # 2 s at full rate moves half the bytes; the rest at half rate
        # takes 4 s more.
        assert flow.completed_at == pytest.approx(latency + 6.0)


class TestStaleTimerGuardPythonCore(TestStaleTimerGuard):
    """The same guard on the numpy kernel."""

    @pytest.fixture(autouse=True)
    def _numpy_core(self, monkeypatch):
        monkeypatch.setattr(fluid, "_ext", reference)


class TestSubUlpResidue:
    """Flows whose transfer time underflows float addition must finish.

    Subtraction residue after a recompute scales as rate * ulp(now) —
    independent of flow size — so a small flow on a fast link can be left
    with remaining bytes whose ETA satisfies ``now + eta == now``.  The
    zero-delay timer then never advances the clock and the solver
    livelocks.  ``_on_timer_event`` treats such flows as finished.
    """

    def test_tiny_flow_on_fast_link_completes_instead_of_livelocking(self):
        # 1e-7 B at 2.5e10 B/s -> eta = 4e-18 s, far below ulp(0.5).
        env, net = make_net({"l": 2.5e10})
        state = {}

        def driver():
            yield env.timeout(0.5)
            state["flow"] = net.transfer(("l",), 1e-7)
            yield state["flow"].done

        proc = env.process(driver())
        # Drive manually with an event budget: a regression livelocks on
        # zero-delay timers, and ``env.run`` would spin forever.
        budget = env.events_processed + 10_000
        while proc.callbacks is not None:
            assert env.events_processed < budget, (
                "fluid solver livelocked on a sub-ULP flow"
            )
            env.step()
        assert state["flow"].done.triggered
        assert state["flow"].completed_at == pytest.approx(0.5)


@pytest.mark.parametrize(
    "kernel",
    [reference] + ([COMPILED] if COMPILED else []),
    ids=kernel_id,
)
def test_class_level_wraps_see_every_timer_activation_and_resolve(
    kernel, monkeypatch
):
    # An external tracer wraps these entry points on their classes (and
    # the water-fill on its module) after the network exists; on either
    # bookkeeping path every completion timer, latency activation,
    # deferred re-solve and fill must reach them.
    env, net = make_net({"a": 100.0, "b": 40.0, "c": 250.0})
    net._kernel = kernel
    calls = {"fire": 0, "activate": [], "resolve": 0, "armed": 0,
             "loaded": 0, "fill": 0}
    finished = set()
    on_timer_event = FluidNetwork._on_timer_event
    activate_event = FluidNetwork._activate_event
    defer = type(env).defer_to_instant_end
    run = _waterfill.run

    def traced_timer(self, event):
        calls["fire"] += 1
        live = [flow for flow in active_flows(self)]
        on_timer_event(self, event)
        finished.update(flow for flow in live if flow.done.triggered)

    def traced_activate(self, event):
        assert event._value.started_at is None
        activate_event(self, event)
        calls["activate"].append(event._value)

    def traced_defer(self, callback):
        def resolve():
            calls["resolve"] += 1
            calls["loaded"] += net._n > 0  # a re-solve with rows fills
            callback()
            # The re-solve armed a timer iff some flow now moves.
            calls["armed"] += any(flow.rate > 0 for flow in active_flows(net))

        defer(self, resolve)

    def traced_run(*args):
        calls["fill"] += 1
        run(*args)

    monkeypatch.setattr(FluidNetwork, "_on_timer_event", traced_timer)
    monkeypatch.setattr(_waterfill, "run", traced_run)
    monkeypatch.setattr(FluidNetwork, "_activate_event", traced_activate)
    monkeypatch.setattr(type(env), "defer_to_instant_end", traced_defer)
    specs = [
        (("a",), 300.0, 0.0), (("a", "b"), 120.0, 0.5), (("c",), 0.0, 0.25),
        (("b",), 80.0, 0.0), ((), 10.0, 1.0), (("c", "a"), 500.0, 2.0),
        (("a",), 300.0, 0.0), (("b", "c"), 64.0, 0.5),
    ]
    flows = []

    def arrivals():
        for path, size, latency in specs:
            flows.append(net.transfer(path, size, latency))
            yield env.timeout(0.75)

    env.run(until=env.process(arrivals()))
    env.run()
    assert all(flow.done.processed for flow in flows)
    moving = {flow for flow in flows if flow.size > 0 and flow.path}
    assert finished == moving
    assert set(calls["activate"]) == {
        flow for flow in flows if flow.latency > 0
    }
    assert calls["resolve"] == net._generation > 0
    assert calls["fire"] == calls["armed"] > 0
    assert calls["fill"] == calls["loaded"] > 0
