"""Unit tests for the discrete-event simulation kernel."""

import gc
import itertools

import numpy as np
import pytest

import repro.simkit
from repro.cluster import Cluster
from repro.netsim import Fabric, all_to_all
from repro.simkit import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    SimulationError,
    StalledSimulationError,
    Store,
)
from tests.conftest import COMPILED


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    # NaN too: a NaN heap key would break the queue's ordering.
    for delay in (-1, float("nan")):
        with pytest.raises(SimulationError):
            env.timeout(delay)
    assert env.peek() == float("inf")


def test_timeout_value_passed_through():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1, value="payload")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["payload"]


def test_process_return_value_is_event_value():
    env = Environment()

    def child():
        yield env.timeout(3)
        return 42

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == [42]


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def make(name):
        def proc():
            yield env.timeout(1)
            order.append(name)

        return proc

    for name in "abcd":
        env.process(make(name)())
    env.run()
    assert order == list("abcd")


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=25)
    assert env.now == 25


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(4)
        return "done"

    result = env.run(until=env.process(proc()))
    assert result == "done"
    assert env.now == 4


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_run_until_non_finite_time_rejected():
    """A NaN or infinite bound is refused before any event runs, so the
    clock never reads NaN or inf."""
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3)
        log.append(env.now)

    env.process(proc())
    for until in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SimulationError):
            env.run(until=until)
    assert (env.now, log) == (0, [])
    env.run()
    assert (env.now, log) == (3, [3])


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(7)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(7, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    gate = env.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_failed_event_raises_in_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_all_of_waits_for_slowest():
    env = Environment()
    times = []

    def proc():
        yield AllOf(env, [env.timeout(3), env.timeout(9), env.timeout(6)])
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [9]


def test_any_of_waits_for_fastest():
    env = Environment()
    times = []

    def proc():
        yield AnyOf(env, [env.timeout(3), env.timeout(9)])
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [3]


def test_empty_all_of_triggers_immediately():
    env = Environment()
    done = []

    def proc():
        value = yield AllOf(env, [])
        done.append(value)

    env.process(proc())
    env.run()
    assert done == [None]


def test_yield_on_already_processed_event_resumes_immediately():
    env = Environment()
    gate = env.event()
    gate.succeed("early")
    log = []

    def proc():
        yield env.timeout(1)
        value = yield gate
        log.append((env.now, value))

    env.process(proc())
    env.run()
    assert log == [(1, "early")]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(12)
    assert env.peek() == 12
    env.run()
    assert env.peek() == float("inf")


def test_yield_non_event_raises():
    env = Environment()

    def proc():
        yield "not an event"

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_nested_processes_compose():
    env = Environment()

    def leaf(duration):
        yield env.timeout(duration)
        return duration

    def mid():
        first = yield env.process(leaf(2))
        second = yield env.process(leaf(3))
        return first + second

    def root(results):
        total = yield env.process(mid())
        results.append((env.now, total))

    results = []
    env.process(root(results))
    env.run()
    assert results == [(5, 5)]


class TestStallDiagnostics:
    def test_waiter_on_unfired_event_raises_stalled_simulation(self):
        """A process waiting on an event nobody triggers is named in a
        StalledSimulationError instead of env.run() silently returning."""
        env = Environment()
        never = env.event()

        def waiter():
            yield never

        env.process(waiter(), name="stuck-puller")
        with pytest.raises(StalledSimulationError) as excinfo:
            env.run()
        assert "stuck-puller" in str(excinfo.value)
        assert any(
            proc.name == "stuck-puller" for proc in excinfo.value.processes
        )

    def test_run_until_unreachable_event_raises(self):
        env = Environment()
        with pytest.raises(StalledSimulationError):
            env.run(until=env.event())

    def test_daemon_blocked_on_store_get_does_not_trip_stall_detection(self):
        """A daemon listener left blocked on ``get()`` forever must not
        read as a stall; plain env.run() drains cleanly."""
        env = Environment()
        inbox = Store(env)
        received = []

        def listener():
            while True:
                received.append((yield inbox.get()))

        def sender():
            for key in ("a", "b"):
                yield env.timeout(1)
                inbox.put(key)

        env.process(listener(), name="listener", daemon=True)
        env.process(sender())
        env.run()
        assert received == ["a", "b"]
        assert env.now == 2


# -- the collector pause ----------------------------------------------------


@pytest.fixture
def collecting():
    """The cyclic collector on for the test, then as it was."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pytest.mark.parametrize(
    "ending", ["exhaustion", "until-time", "until-event", "raises", "stall"]
)
def test_run_pauses_the_collector_and_restores_it(collecting, ending):
    """A process reads the collector off inside the loop; however the run
    ends, the collector is on again once it returns or raises."""
    env = Environment()
    seen = []

    def proc():
        seen.append(gc.isenabled())
        yield env.timeout(1)
        seen.append(gc.isenabled())
        if ending == "raises":
            raise ValueError("boom")
        if ending == "stall":
            yield env.event()

    process = env.process(proc())
    if ending == "raises":
        with pytest.raises(ValueError, match="boom"):
            env.run()
    elif ending == "stall":
        with pytest.raises(StalledSimulationError):
            env.run()
    else:
        until = {"exhaustion": None, "until-time": 5, "until-event": process}[ending]
        env.run(until=until)
    assert seen == [False, False]
    assert gc.isenabled()


def test_a_run_started_with_the_collector_off_leaves_it_off(collecting):
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(1)
        seen.append(gc.isenabled())

    env.process(proc())
    gc.disable()
    env.run()
    assert seen == [False]
    assert not gc.isenabled()


def test_a_nested_run_restores_the_outer_runs_state(collecting):
    """A process of one environment running a second one: the inner run
    finds the collector off and leaves it off for the rest of the outer
    run, which turns it back on."""
    outer, inner = Environment(), Environment()
    seen = []

    def inner_proc():
        yield inner.timeout(1)
        seen.append(("inner", gc.isenabled()))

    def outer_proc():
        yield outer.timeout(1)
        inner.process(inner_proc())
        inner.run()
        seen.append(("outer", gc.isenabled()))
        yield outer.timeout(1)

    outer.process(outer_proc())
    outer.run()
    assert seen == [("inner", False), ("outer", False)]
    assert gc.isenabled()


def test_close_drops_what_a_stopped_run_left():
    """A run stopped at its event leaves the instant-end hook deferred in
    that instant and every later event; ``close`` drops them both."""
    env = Environment()
    hooks = []

    def proc():
        yield env.timeout(1)
        env.defer_to_instant_end(lambda: hooks.append(env.now))

    process = env.process(proc())
    env.timeout(5)
    env.run(until=process)
    assert env.peek() == 1
    env.close()
    assert env.peek() == float("inf")
    env.run()
    assert (hooks, env.now) == ([], 1)


# -- callbacks: an inline first slot, a list on demand ----------------------
# (tests/test_simkit_reference_kernel.py reruns these on the reference.)


def _owner(callback):
    """Who registered ``callback``: a process or condition registers itself
    on the compiled core and its bound method on the reference."""
    return getattr(callback, "__self__", callback)


def _wait(env, event, log=None, name=None):
    """Start a process waiting on ``event`` and let it register."""

    def waiter():
        yield event
        if log is not None:
            log.append(name)

    process = env.process(waiter())
    env.step()
    return process


def test_callbacks_read_as_a_list_in_registration_order():
    env = Environment()
    event = env.event()
    assert event.callbacks == []
    process = _wait(env, event)
    first_read = event.callbacks
    assert isinstance(first_read, list)
    assert [_owner(callback) for callback in first_read] == [process]
    condition = AllOf(env, [event])

    def hook(_):
        pass

    event.callbacks.append(hook)
    # A read keeps the list: what C registers later lands in it too.
    assert event.callbacks is first_read
    assert [_owner(callback) for callback in event.callbacks] == [
        process, condition, hook
    ]
    event.succeed()
    env.run()
    assert condition.processed


def test_assigning_callbacks_replaces_them():
    env = Environment()
    event = env.event()
    condition = AllOf(env, [event])
    log = []
    event.callbacks = [lambda e: log.append(e.value)]
    assert len(event.callbacks) == 1
    event.succeed("value")
    env.run()
    assert log == ["value"]
    assert not condition.triggered


def test_callbacks_read_none_once_processed():
    env = Environment()
    event = env.event()
    _wait(env, event)
    event.succeed()
    assert event.callbacks is not None
    env.run()
    assert event.processed and event.callbacks is None


@pytest.mark.parametrize(
    "order", list(itertools.permutations(["process", "condition", "hook"]))
)
def test_waiters_on_one_event_resume_in_registration_order(order):
    env = Environment()
    event = env.event()
    log = []

    def evaluate(total, count):
        log.append("condition")
        return count == total

    for kind in order:
        if kind == "process":
            _wait(env, event, log, "process")
        elif kind == "condition":
            Condition(env, evaluate, [event])
        else:
            event.callbacks.append(lambda _: log.append("hook"))
    event.succeed()
    env.run()
    assert log == list(order)


@pytest.mark.skipif(COMPILED is None, reason="counts the compiled core's objects")
def test_a_staged_all_to_all_leaves_three_tracked_objects_per_flow():
    """A flow with a latency leaves its ``Flow``, ``done`` event and
    ``Timeout``: each event keeps its one callback inline, the timers
    share one bound ``_activate_event`` and the tags come from the route
    table.  The call itself leaves two more: its ``AllOf`` and that bound
    method."""
    cluster = Cluster(2)
    # The compiled environment even where the reference rerun of this
    # suite rebinds ``Environment``.
    env = repro.simkit.Environment()
    fabric = Fabric(env, cluster)
    matrix = np.random.default_rng(3).random((cluster.world_size,) * 2) + 1.0
    all_to_all(fabric, matrix)  # builds the route table
    env.run()
    flows = len(fabric.a2a_routes()[0])
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        all_to_all(fabric, matrix)
        new = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert new <= 3 * flows + 2
