"""Edge-case tests for the simulation kernel beyond the basics."""

import pytest

from repro.simkit import (
    AllOf,
    AnyOf,
    Environment,
    PriorityResource,
    SimulationError,
    Store,
)


class TestConditionEdgeCases:
    def test_all_of_with_failure_propagates(self):
        env = Environment()
        gate = env.event()
        caught = []

        def proc():
            try:
                yield AllOf(env, [env.timeout(5), gate])
            except RuntimeError as exc:
                caught.append(str(exc))

        def failer():
            yield env.timeout(1)
            gate.fail(RuntimeError("bad"))

        env.process(proc())
        env.process(failer())
        env.run()
        assert caught == ["bad"]

    def test_nested_conditions(self):
        env = Environment()
        times = []

        def proc():
            yield AnyOf(
                env, [AllOf(env, [env.timeout(1), env.timeout(2)]), env.timeout(10)]
            )
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [2]

    def test_condition_over_pretriggered_events(self):
        env = Environment()
        done = env.event()
        done.succeed("x")
        times = []

        def proc():
            yield env.timeout(1)
            yield AllOf(env, [done])
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1]


class TestStoreAndPriorityEdgeCases:
    def test_store_multiple_waiting_consumers_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(name):
            item = yield store.get()
            got.append((name, item))

        for name in ("a", "b"):
            env.process(consumer(name))

        def producer():
            yield env.timeout(1)
            yield store.put(1)
            yield store.put(2)

        env.process(producer())
        env.run()
        assert got == [("a", 1), ("b", 2)]

    def test_priority_resource_preserves_running_user(self):
        env = Environment()
        resource = PriorityResource(env, capacity=1)
        order = []

        def low_then_high():
            with resource.request(priority=5) as req:
                yield req
                order.append("low-start")
                env.process(high())
                yield env.timeout(10)
                order.append("low-end")

        def high():
            with resource.request(priority=0) as req:
                yield req
                order.append("high")

        env.process(low_then_high())
        env.run()
        # Priorities reorder the queue, they do not preempt the holder.
        assert order == ["low-start", "low-end", "high"]

    def test_zero_delay_timeouts_preserve_creation_order(self):
        env = Environment()
        order = []

        def proc(name):
            yield env.timeout(0)
            order.append(name)

        for name in "abc":
            env.process(proc(name))
        env.run()
        assert order == list("abc")


class TestRunSemantics:
    def test_step_on_empty_queue_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.step()

    def test_run_until_future_time_with_no_events(self):
        env = Environment()
        env.run(until=100)
        assert env.now == 100

    def test_processes_spawned_during_run_execute(self):
        env = Environment()
        log = []

        def child():
            yield env.timeout(1)
            log.append(env.now)

        def parent():
            yield env.timeout(1)
            env.process(child())

        env.process(parent())
        env.run()
        assert log == [2]
