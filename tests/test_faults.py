"""Tests for the fault-injection subsystem and resilient scheduling.

Covers the fault-plan grammar, mid-flight link rescaling, the injector's
determinism, and the engine-level guarantees: bit-identical timings with
faults disabled, graceful (bounded, hang-free) degradation with them on,
credit-discipline preservation, and the between-iteration paradigm
degradation policy.
"""

import re
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster, Device, LinkId
from repro.config import moe_gpt
from repro.core import build_workload, engine_for
from repro.faults import (
    ComputeSlowdown,
    DegradationPolicy,
    FaultInjector,
    FaultPlan,
    LinkFault,
    MessageLoss,
    PullFailedError,
    ResilienceConfig,
    ServerOutage,
    retry_flow,
)
from repro.netsim import Fabric, fluid
from repro.simkit import Environment
from repro.trace import render_timeline

from tests import reference
from tests.conftest import fault_arm_controller, kernel_id


# Pre-PR golden timings for moe_gpt(16) on Cluster(2) with the default
# workload: the no-fault acceptance bar (bit-identical, not approximate).
GOLDEN_SECONDS = {
    "expert-centric": 0.10544364660053329,
    "data-centric": 0.07532739188053336,
    "pipelined-ec": 0.09161975125333331,
    "unified": 0.07532739188053336,
}


@pytest.fixture(scope="module")
def setup():
    config = moe_gpt(16)
    cluster = Cluster(2)
    workload = build_workload(config, cluster)
    return config, cluster, workload


def run_one(setup, mode, **kwargs):
    config, cluster, workload = setup
    engine = engine_for(mode, config, cluster, workload=workload, **kwargs)
    return engine.run_iteration()


class TestFaultPlanParse:
    def test_full_grammar_round_trip(self):
        plan = FaultPlan.parse(
            "seed=7;loss=pull-request+grad-push*0.1;"
            "link=nic.0*0.25@0.005:0.015;slow=0*0.5;outage=1@0.002:0.004"
        )
        assert plan.seed == 7
        loss, link, slow, outage = plan.faults
        assert loss == MessageLoss(
            kinds=("pull-request", "grad-push"), rate=0.1
        )
        assert link == LinkFault("nic.0", 0.25, start=0.005, end=0.015)
        assert slow == ComputeSlowdown(machine=0, speed=0.5)
        assert outage == ServerOutage(machine=1, start=0.002, end=0.004)

    def test_empty_and_default_windows(self):
        plan = FaultPlan.parse("loss=pull-request*0.2")
        assert plan.seed == 0
        (loss,) = plan.faults
        assert loss.start == 0.0 and loss.end == float("inf")
        assert not FaultPlan.parse("")
        assert plan

    @pytest.mark.parametrize("spec", [
        "bogus",
        "frob=1*2",
        "loss=pull-request",          # no magnitude
        "loss=fetch-external*0.1",    # not a lossable kind
        "loss=pull-request*1.5",      # rate out of range
        "link=nic*0",                 # factor must be positive
        "link=nic*nan@0:1",           # ... and a number
        "link=nic*inf",               # ... and finite
        "link=nic*0.5@nan:1",         # window bounds must be numbers
        "link=nic*0.5@0:nan",
        "slow=0*nan",                 # speed must be a finite number
        "slow=0*inf",
        "link=nic*0.5@0.01:0.005",    # empty window
        "slow=x*0.5",                 # machine must be an int
        "outage=0:flaky",             # outages take no :MODE suffix
        "outage=1:pause@0:0.01",      # ... not even :pause
        "link=nic.abc*0.5",           # a link's machine is an int
        "link=bogus*0.5",             # no link kind starts with 'bogus'
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_link_selector_matching(self):
        nic_any = LinkFault("nic", 0.5)
        assert nic_any.matches(LinkId("nic", 0, 0, "out"))
        assert nic_any.matches(LinkId("nic", 3, 1, "in"))
        assert not nic_any.matches(LinkId("nvlink", 0, 0, "out"))
        scoped = LinkFault("nic.1", 0.5)
        assert scoped.matches(LinkId("nic", 1, 0, "out"))
        assert not scoped.matches(LinkId("nic", 0, 0, "out"))
        prefix = LinkFault("pcie", 0.5)
        assert prefix.matches(LinkId("pcie_up", 2, 0, "out"))
        assert prefix.matches(LinkId("pcie_gpu", 2, 1, "in"))
        assert LinkFault("*", 0.5).matches(LinkId("nvlink", 0, 0, "out"))


class TestSetCapacity:
    def test_mid_flight_rescale_timing(self):
        """100 B over a 100 B/s link, halved at t=0.5: 50 B moved at the
        old rate, the rest at 50 B/s -> completion at t=1.5."""
        env = Environment()
        from repro.netsim.fluid import FluidNetwork

        network = FluidNetwork(env)
        network.add_link("l", 100.0)
        flow = network.transfer(["l"], 100.0)

        def chaos():
            yield env.timeout(0.5)
            network.set_capacity("l", 50.0)

        env.process(chaos(), daemon=True)
        env.run(until=flow.done)
        assert env.now == pytest.approx(1.5)
        assert network.capacity("l") == 50.0

    def test_rejects_non_positive(self):
        env = Environment()
        from repro.netsim.fluid import FluidNetwork

        network = FluidNetwork(env)
        network.add_link("l", 100.0)
        with pytest.raises(ValueError):
            network.set_capacity("l", 0.0)


class TestDroppedTransfers:
    """A transfer the injector drops is checked like one it delivers."""

    @staticmethod
    def _outage_fabric():
        env = Environment()
        fabric = Fabric(env, Cluster(2))
        plan = FaultPlan(faults=(ServerOutage(machine=1, start=0.0, end=1.0),))
        return fabric, FaultInjector(plan, fabric).install()

    @pytest.mark.parametrize("size", [float("nan"), -5.0, float("inf")])
    def test_a_dropped_transfer_refuses_a_bad_size(self, size):
        fabric, injector = self._outage_fabric()
        src, dst = Device.gpu(0, 0), Device.host(1)
        with pytest.raises(ValueError, match="size must be finite and non-negative"):
            fabric.transfer(src, dst, size, tag=("pull-request", 0))
        assert injector.stats.dropped_messages == 0
        # The same refusal as without the injector.
        fabric.fault_injector = None
        with pytest.raises(ValueError, match="size must be finite and non-negative"):
            fabric.transfer(src, dst, size, tag=("pull-request", 0))

    def test_a_dropped_transfer_is_a_dead_flow(self):
        fabric, injector = self._outage_fabric()
        flow = fabric.transfer(Device.gpu(0, 0), Device.host(1), 64.0,
                               tag=("pull-request", 0))
        fabric.env.run(until=2.0)
        assert injector.stats.dropped_messages == 1
        assert flow.size == 64.0 and not flow.done.triggered
        assert flow.started_at is None and flow.remaining == 64.0

    @pytest.mark.parametrize("kernel", sorted(
        {reference, fluid._ext}, key=kernel_id
    ), ids=kernel_id)
    def test_a_dropped_transfer_is_the_networks_flow_class(self, kernel):
        fabric, injector = self._outage_fabric()
        fabric.network._kernel = kernel
        delivered = fabric.transfer(Device.gpu(0, 0), Device.gpu(0, 1), 64.0,
                                    tag=("pull-request", 0))
        dropped = fabric.transfer(Device.gpu(0, 0), Device.host(1), 64.0,
                                  tag=("pull-request", 0))
        assert injector.stats.dropped_messages == 1
        assert type(dropped) is type(delivered) is fluid.Flow

    @pytest.mark.parametrize("flow_class", [fluid.Flow, reference.Flow],
                             ids=["Flow", "PythonFlow"])
    @pytest.mark.parametrize("size, latency, name", [
        (float("nan"), 0.0, "size"), (-1.0, 0.0, "size"),
        (1.0, float("inf"), "latency"), (1.0, -0.5, "latency"),
    ])
    def test_both_flow_classes_check_size_and_latency(
        self, flow_class, size, latency, name
    ):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            flow_class(Environment(), (), (), size, latency)


class TestOverlappingLinkWindows:
    """Windows on one link compound while they overlap, and every window's
    end leaves the link at its nominal capacity times the windows still
    open."""

    @staticmethod
    def relative_capacity(faults, times):
        env = Environment()
        fabric = Fabric(env, Cluster(2))
        network = fabric.network
        nics = [link for link in network.links()
                if str(link.kind).startswith("nic")]
        nominal = [network.capacity(link) for link in nics]
        FaultInjector(FaultPlan(faults=faults), fabric).install()
        readings = []
        for t in times:
            env.run(until=t)
            ratios = {network.capacity(link) / base
                      for link, base in zip(nics, nominal)}
            assert len(ratios) == 1  # every NIC alike
            readings.append(ratios.pop())
        return readings

    def test_staggered_windows_restore_nominal(self):
        faults = (LinkFault("nic", 0.5, 0.0, 5.0),
                  LinkFault("nic", 0.5, 2.0, 10.0))
        assert self.relative_capacity(faults, (1, 3, 6, 11)) == [
            0.5, 0.25, 0.5, 1.0]

    def test_nested_windows_restore_the_outer_factor(self):
        faults = (LinkFault("nic", 0.5, 0.0, 10.0),
                  LinkFault("nic", 0.2, 2.0, 5.0))
        assert self.relative_capacity(faults, (1, 3, 6, 11)) == [
            0.5, 0.5 * 0.2, 0.5, 1.0]


class TestRetryFlow:
    """The one wait on a losable leg, on stand-in flows whose ``done``
    fires only when the test says so."""

    @staticmethod
    def drive(env, send, deadline=float("inf"), max_retries=2):
        res = ResilienceConfig(
            pull_timeout=1e-3, max_retries=max_retries, backoff=2.0
        )
        retries, outcome = [], []

        def caller():
            flow = yield from retry_flow(
                env, res, send, lambda: retries.append(env.now), deadline,
            )
            outcome.append((env.now, flow))

        env.run(until=env.process(caller()))
        return retries, outcome[0]

    @staticmethod
    def landing_flow(env):
        """A flow whose ``done`` fires after 0.5 ms."""
        flow = SimpleNamespace(done=env.event())
        env.timeout(0.5e-3).callbacks.append(lambda _: flow.done.succeed())
        return flow

    def test_unarmed_sends_once_and_waits_with_no_timer(self):
        env = Environment()
        sent, outcome = [], []

        def send():
            sent.append(self.landing_flow(env))
            return sent[-1]

        def caller():
            outcome.append((yield from retry_flow(env, None, send, None)))

        env.run(until=env.process(caller()))
        assert outcome == sent and len(sent) == 1
        assert env.now == pytest.approx(0.5e-3)

        bare = Environment()

        def waiter():
            yield self.landing_flow(bare).done

        bare.run(until=bare.process(waiter()))
        assert env.events_processed == bare.events_processed

    def test_push_uses_the_push_timeout(self):
        env = Environment()
        res = ResilienceConfig(
            pull_timeout=1e-3, push_timeout=5e-3, max_retries=0
        )

        def caller():
            flow = yield from retry_flow(
                env, res, lambda: SimpleNamespace(done=env.event()), None,
                push=True,
            )
            assert flow is None

        env.run(until=env.process(caller()))
        assert env.now == pytest.approx(5e-3)

    def test_lost_flow_gives_up_after_backoff(self):
        env = Environment()
        sent = []

        def send():
            sent.append(env.now)
            return SimpleNamespace(done=env.event())  # lost: never fires

        retries, (now, flow) = self.drive(env, send)
        assert flow is None
        # Timers of 1, 2 and 4 ms; a retry before each re-send.
        assert sent == pytest.approx([0.0, 1e-3, 3e-3])
        assert retries == pytest.approx([1e-3, 3e-3])
        assert now == pytest.approx(7e-3)

    def test_late_attempt_completes_and_is_returned(self):
        env = Environment()
        flows = []

        def send():
            if len(flows) == 1:  # the second attempt lands after 0.5 ms
                flows.append(self.landing_flow(env))
            else:
                flows.append(SimpleNamespace(done=env.event()))
            return flows[-1]

        retries, (now, flow) = self.drive(env, send)
        assert flow is flows[1]
        assert retries == pytest.approx([1e-3])
        assert now == pytest.approx(1.5e-3)

    def test_deadline_clips_the_timer_and_stops_sending(self):
        env = Environment()
        sent = []

        def send():
            sent.append(env.now)
            return SimpleNamespace(done=env.event())

        retries, (now, flow) = self.drive(env, send, deadline=2.5e-3)
        assert flow is None
        # The second timer is clipped from 2 ms to the 1.5 ms left; the
        # retry is booked before the deadline check, and the third attempt
        # is never sent.
        assert sent == pytest.approx([0.0, 1e-3])
        assert retries == pytest.approx([1e-3, 2.5e-3])
        assert now == pytest.approx(2.5e-3)


class TestComputeSlowdown:
    def test_piecewise_duration_across_window(self):
        env = Environment()
        fabric = Fabric(env, Cluster(1))
        plan = FaultPlan(faults=(ComputeSlowdown(0, 0.5, start=1.0, end=2.0),))
        injector = FaultInjector(plan, fabric)
        # Entirely before the window: nominal.
        assert injector.compute_duration(0, 0.5, 0.0) == pytest.approx(0.5)
        # Entirely inside: doubled.
        assert injector.compute_duration(0, 0.4, 1.1) == pytest.approx(0.8)
        # Straddling the start: 0.5s nominal + 0.5s of work at half speed.
        assert injector.compute_duration(0, 1.0, 0.5) == pytest.approx(1.5)
        # Straddling the end: 1s of slow work covers 0.5 units, rest nominal.
        assert injector.compute_duration(0, 1.0, 1.0) == pytest.approx(1.5)
        # Other machines unaffected.
        assert injector.compute_duration(1, 1.0, 1.0) == 1.0


class TestNoFaultGoldens:
    @pytest.mark.parametrize("mode", sorted(GOLDEN_SECONDS))
    def test_bit_identical_without_faults(self, setup, mode):
        assert run_one(setup, mode).seconds == GOLDEN_SECONDS[mode]

    @pytest.mark.parametrize("mode", ["data-centric", "unified"])
    def test_resilience_alone_does_not_change_timing(self, setup, mode):
        """Arming timeouts/retries with no injected faults must reproduce
        the golden timeline: every pull completes before its timer."""
        result = run_one(setup, mode, resilience=ResilienceConfig())
        assert result.seconds == GOLDEN_SECONDS[mode]
        assert result.fault_stats.dropped_messages == 0
        assert result.fault_stats.retries == 0
        assert result.fault_stats.stale_fallbacks == 0


class TestEngineUnderFaults:
    def test_total_pull_loss_degrades_gracefully(self, setup):
        plan = FaultPlan.parse("seed=1;loss=pull-request*1.0")
        result = run_one(setup, "data-centric", fault_plan=plan)
        stats = result.fault_stats
        # Every external fetch exhausted its retries and fell back stale.
        assert stats.stale_fallbacks > 0
        assert stats.dropped_messages > 0
        # Bounded slowdown, not a hang: well under 2x the healthy time.
        assert result.seconds < 2 * GOLDEN_SECONDS["data-centric"]
        # Fallback and drop events are on the fault timeline lane.
        assert result.trace.spans_of("fault.fallback")
        assert result.trace.spans_of("fault.drop")
        assert result.trace.events_of("fault.fallback")

    def test_same_plan_and_seed_reproduce_identical_timelines(self, setup):
        plan = FaultPlan.parse("seed=7;loss=pull-request*0.5")
        a = run_one(setup, "data-centric", fault_plan=plan)
        b = run_one(setup, "data-centric", fault_plan=plan)
        assert a.seconds == b.seconds
        assert a.fault_stats.dropped_messages == b.fault_stats.dropped_messages
        assert a.fault_stats.retries == b.fault_stats.retries
        assert [s.start for s in a.trace.spans_of("fault.")] == [
            s.start for s in b.trace.spans_of("fault.")
        ]
        different_seed = FaultPlan.parse("seed=8;loss=pull-request*0.5")
        c = run_one(setup, "data-centric", fault_plan=different_seed)
        assert (
            c.fault_stats.dropped_messages
            != a.fault_stats.dropped_messages
            or c.seconds != a.seconds
        )

    def test_expert_centric_immune_to_pull_loss(self, setup):
        plan = FaultPlan.parse("seed=1;loss=pull-request*1.0")
        result = run_one(setup, "expert-centric", fault_plan=plan)
        assert result.seconds == GOLDEN_SECONDS["expert-centric"]
        assert result.fault_stats.dropped_messages == 0

    def test_credits_all_released_under_faults(self, setup):
        plan = FaultPlan.parse("seed=3;loss=pull-request*1.0")
        result = run_one(setup, "data-centric", fault_plan=plan)
        credit_size = result.features.credit_size
        assert set(result.credit_levels.values()) == {credit_size}
        assert all(level >= 0 for level in result.credit_min_levels.values())

    def test_compute_slowdown_stretches_iteration(self, setup):
        plan = FaultPlan.parse("slow=1*0.5")
        result = run_one(setup, "data-centric", fault_plan=plan)
        assert result.seconds > GOLDEN_SECONDS["data-centric"]

    def test_link_degradation_window_stretches_iteration(self, setup):
        plan = FaultPlan.parse("link=nic*0.05@0.0:0.05")
        result = run_one(setup, "data-centric", fault_plan=plan)
        assert result.seconds > GOLDEN_SECONDS["data-centric"]
        assert result.trace.spans_of("fault.link")

    def test_server_outage_window_recovers(self, setup):
        plan = FaultPlan.parse("outage=1@0.0:0.01")
        result = run_one(setup, "data-centric", fault_plan=plan)
        stats = result.fault_stats
        assert stats.dropped_messages > 0
        assert stats.retries > 0
        assert result.seconds < 2 * GOLDEN_SECONDS["data-centric"]

    @pytest.mark.parametrize("spec", [
        "outage=2", "slow=2*0.5", "link=nic.99*0.5",
    ], ids=["outage", "slow", "link"])
    def test_a_fault_with_no_target_is_refused_at_construction(
        self, setup, spec
    ):
        """On two machines each ran a fault-free iteration."""
        (fault,) = FaultPlan.parse(spec).faults
        with pytest.raises(ValueError, match=re.escape(repr(fault))):
            run_one(setup, "data-centric", fault_plan=FaultPlan.parse(spec))

    def test_on_failure_raise_surfaces_pull_failure(self, setup):
        plan = FaultPlan.parse("seed=1;loss=pull-request*1.0")
        with pytest.raises(PullFailedError):
            run_one(
                setup, "data-centric", fault_plan=plan,
                resilience=ResilienceConfig(on_failure="raise"),
            )

    def test_fault_lane_renders_in_timeline(self, setup):
        plan = FaultPlan.parse("seed=1;loss=pull-request*1.0")
        result = run_one(setup, "data-centric", fault_plan=plan)
        art = render_timeline(result.trace, lanes=["compute.dense", "fault"])
        fault_row = next(
            line for line in art.splitlines() if line.startswith("fault")
        )
        assert "!" in fault_row


class TestDegradationPolicy:
    def test_persistent_fallbacks_flip_block_to_expert_centric(self, setup):
        plan = FaultPlan.parse("seed=2;loss=pull-request*1.0")
        config, cluster, workload = setup
        engine = engine_for(
            "unified", config, cluster, workload=workload,
            fault_plan=plan,
            controller=fault_arm_controller(DegradationPolicy()),
        )
        first, second = engine.run(2)
        assert first.fault_stats.stale_fallbacks > 0
        assert first.fault_stats.degraded_blocks
        # Every degraded block runs expert-centric from iteration 2 on.
        for block in first.fault_stats.degraded_blocks:
            assert second.strategies[block] == "expert-centric"
        # Expert-centric needs no cross-machine pulls: no more fallbacks.
        degraded = set(first.fault_stats.degraded_blocks)
        assert not (
            set(second.fault_stats.fallbacks_by_block) & degraded
        )
        assert first.trace.events_of("fault.degrade")

    def test_decide_thresholds(self):
        from repro.faults import FaultStats

        # Any stale fallback degrades its block to expert-centric.
        stats = FaultStats(fallbacks_by_block={1: 1, 3: 5})
        assert DegradationPolicy().decide(stats) == {
            1: "expert-centric", 3: "expert-centric",
        }
        assert DegradationPolicy().decide(FaultStats()) == {}

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="recover_after_clean"):
            DegradationPolicy(recover_after_clean=0)
        with pytest.raises(ValueError):
            ResilienceConfig(pull_timeout=0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ResilienceConfig(on_failure="shrug")


class TestResilienceConfig:
    @pytest.mark.parametrize("field, value", [
        ("pull_timeout", float("nan")),
        ("backoff", float("nan")),
        ("max_retries", 1.5),
        ("push_timeout", float("inf")),
        ("block_deadline", float("nan")),
        ("max_retries", True),
    ])
    def test_values_that_break_a_run_are_refused(self, field, value):
        """Each value was accepted once and then failed mid-run, ran to
        ``seconds=inf`` or passed silently."""
        with pytest.raises(ValueError, match=field):
            ResilienceConfig(**{field: value})

    def test_the_boundary_values_are_accepted(self):
        ResilienceConfig(max_retries=0, backoff=1.0, block_deadline=None)
