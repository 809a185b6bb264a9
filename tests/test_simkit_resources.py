"""Unit tests for simkit shared-resource primitives."""

import pytest

from repro.simkit import (
    AnyOf,
    Container,
    Environment,
    PriorityResource,
    Resource,
    SimulationError,
    Store,
)


def test_resource_serializes_users():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def user(name, hold):
        with resource.request() as req:
            yield req
            log.append((name, "start", env.now))
            yield env.timeout(hold)
            log.append((name, "end", env.now))

    env.process(user("a", 5))
    env.process(user("b", 3))
    env.run()
    assert log == [
        ("a", "start", 0),
        ("a", "end", 5),
        ("b", "start", 5),
        ("b", "end", 8),
    ]


def test_resource_capacity_two_allows_parallelism():
    env = Environment()
    resource = Resource(env, capacity=2)
    starts = []

    def user(name):
        with resource.request() as req:
            yield req
            starts.append((name, env.now))
            yield env.timeout(4)

    for name in "abc":
        env.process(user(name))
    env.run()
    assert starts == [("a", 0), ("b", 0), ("c", 4)]


def test_resource_fifo_queue_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def user(name, arrive):
        yield env.timeout(arrive)
        with resource.request() as req:
            yield req
            order.append(name)
            yield env.timeout(10)

    env.process(user("first", 1))
    env.process(user("second", 2))
    env.process(user("third", 3))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_release_unqueued_request_is_noop():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder():
        req = resource.request()
        yield req
        resource.release(req)
        resource.release(req)  # second release must not corrupt state

    env.process(holder())
    env.run()
    assert resource.users == []


def test_released_waiting_request_is_never_granted():
    """Leaving the ``with`` block before the grant withdraws the request
    from the wait queue: the slot goes to the next waiter instead."""
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def holder():
        with resource.request() as req:
            yield req
            yield env.timeout(5)

    def impatient():
        with resource.request() as req:
            yield AnyOf(env, [req, env.timeout(2)])
            log.append(("impatient", env.now, req.triggered))
        return req

    def patient():
        yield env.timeout(1)
        with resource.request() as req:
            yield req
            log.append(("patient", env.now))

    env.process(holder())
    withdrawn = env.process(impatient())
    env.process(patient())
    env.run()
    assert log == [("impatient", 2, False), ("patient", 5)]
    assert not withdrawn.value.triggered
    assert resource.users == []


def test_priority_resource_orders_waiters():
    env = Environment()
    resource = PriorityResource(env, capacity=1)
    order = []

    def user(name, priority):
        with resource.request(priority=priority) as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    def spawn():
        # Occupy the resource, then enqueue waiters with mixed priorities.
        with resource.request(priority=0) as req:
            yield req
            env.process(user("low", 9))
            env.process(user("high", 1))
            env.process(user("mid", 5))
            yield env.timeout(1)

    env.process(spawn())
    env.run()
    assert order == ["high", "mid", "low"]


def test_priority_ties_broken_by_arrival_time():
    env = Environment()
    resource = PriorityResource(env, capacity=1)
    order = []

    def user(name, arrive):
        yield env.timeout(arrive)
        with resource.request(priority=3) as req:
            yield req
            order.append(name)
            yield env.timeout(10)

    env.process(user("early", 1))
    env.process(user("late", 2))
    env.run()
    assert order == ["early", "late"]


def test_store_fifo_items():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in ("x", "y", "z"):
            yield store.put(item)
            yield env.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append((env.now, item))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert [item for _, item in received] == ["x", "y", "z"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    log = []

    def consumer():
        item = yield store.get()
        log.append((env.now, item))

    def producer():
        yield env.timeout(6)
        yield store.put("late-item")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [(6, "late-item")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put(1)
        log.append(("put1", env.now))
        yield store.put(2)
        log.append(("put2", env.now))

    def consumer():
        yield env.timeout(5)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [("put1", 0), ("put2", 5)]


def test_container_credit_semantics():
    env = Environment()
    credits = Container(env, capacity=2, init=2)
    log = []

    def worker(name):
        yield credits.get(1)
        log.append((name, "acquired", env.now))
        yield env.timeout(3)
        yield credits.put(1)

    for name in ("a", "b", "c"):
        env.process(worker(name))
    env.run()
    acquired = [(name, t) for name, _, t in log]
    assert acquired == [("a", 0), ("b", 0), ("c", 3)]


def test_container_rejects_bad_amounts():
    env = Environment()
    container = Container(env, capacity=5, init=0)
    with pytest.raises(SimulationError):
        container.put(0)
    with pytest.raises(SimulationError):
        container.get(-1)


def test_container_level_tracks_puts_and_gets():
    env = Environment()
    container = Container(env, capacity=10, init=4)

    def proc():
        yield container.get(3)
        assert container.level == 1
        yield container.put(5)
        assert container.level == 6

    env.process(proc())
    env.run()
    assert container.level == 6


def test_container_put_blocks_at_capacity():
    env = Environment()
    container = Container(env, capacity=2, init=2)
    log = []

    def putter():
        yield container.put(1)
        log.append(env.now)

    def getter():
        yield env.timeout(8)
        yield container.get(1)

    env.process(putter())
    env.process(getter())
    env.run()
    assert log == [8]


@pytest.mark.parametrize("make", [
    lambda env: Resource(env, capacity=1.5),
    lambda env: Resource(env, capacity=2.0),
    lambda env: Resource(env, capacity=-1),
    lambda env: Store(env, capacity=float("nan")),
    lambda env: Store(env, capacity=0),
    lambda env: Container(env, capacity=float("nan")),
    lambda env: Container(env, capacity=4, init=5),
    lambda env: PriorityResource(env).request(priority=float("nan")),
    lambda env: Container(env, capacity=4, init=4).get(float("nan")),
    lambda env: Container(env, capacity=4, init=4).get(5),
    lambda env: Container(env, capacity=4).put(5),
    lambda env: Container(env, capacity=4).put(float("nan")),
    lambda env: Container(env).put(float("inf")),
    lambda env: Container(env, init=1).get(float("inf")),
], ids=[
    "resource-fractional", "resource-float", "resource-negative",
    "store-nan", "store-zero", "container-nan", "container-init-above",
    "priority-nan", "get-nan", "get-above-capacity", "put-above-capacity",
    "put-nan", "put-inf", "get-inf",
])
def test_arguments_that_could_only_block_forever_are_refused(make):
    """Each of these used to be accepted and then wait forever, ending the
    run in a StalledSimulationError far from the call."""
    env = Environment()
    with pytest.raises(SimulationError):
        make(env)
    assert env.peek() == float("inf")


def test_refusals_name_the_argument():
    env = Environment()
    with pytest.raises(SimulationError, match="positive integer, got 1.5"):
        Resource(env, capacity=1.5)
    with pytest.raises(SimulationError, match="store capacity must be positive, got nan"):
        Store(env, capacity=float("nan"))
    with pytest.raises(SimulationError, match="at most the capacity, got 5"):
        Container(env, capacity=4).put(5)


def test_amounts_up_to_capacity_are_served():
    env = Environment()
    container = Container(env, capacity=4, init=0)
    log = []

    def proc():
        yield container.put(4)
        yield container.get(4.0)
        log.append((env.now, container.level))

    env.process(proc())
    env.run()
    assert log == [(0, 0.0)]


def test_integer_levels_stay_integers():
    """The level moves by the arguments' own arithmetic: an int container
    reports int levels (the credit gauges read them)."""
    env = Environment()
    credits = Container(env, capacity=4, init=4)

    def proc():
        yield credits.get(3)
        yield credits.put(1)

    env.process(proc())
    env.run()
    assert (credits.level, credits.min_level) == (2, 1)
    assert type(credits.level) is int and type(credits.min_level) is int
    assert type(Container(env).level) is float


def test_priority_ties_at_one_instant_go_in_request_order():
    env = Environment()
    arbiter = PriorityResource(env, capacity=1)
    order = []

    def user(name, priority):
        with arbiter.request(priority=priority) as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    for name, priority in [("hold", 0), ("a", 2), ("b", 1), ("c", 2), ("d", 1)]:
        env.process(user(name, priority))
    env.run()
    assert order == ["hold", "b", "d", "a", "c"]


def test_withdrawn_priority_request_keeps_the_queue_order():
    env = Environment()
    arbiter = PriorityResource(env, capacity=1)
    holder = arbiter.request(priority=0)
    waiting = [arbiter.request(priority=p) for p in (3, 1, 2, 1, 3)]
    arbiter.release(waiting[1])  # withdrawn before its grant
    granted = []
    for _ in range(len(waiting)):
        arbiter.release(arbiter.users[0])
        granted.extend(arbiter.users)
    assert holder.triggered and not waiting[1].triggered
    assert granted == [waiting[3], waiting[2], waiting[0], waiting[4]]
    assert arbiter.users == []


def test_store_serves_the_put_before_the_get_in_each_pass():
    """An item placed in ``items`` directly (it is a real list) while a get
    waits: the next put is granted first, then the waiting get."""
    env = Environment()
    store = Store(env)
    log = []

    def getter():
        log.append(("got", (yield store.get())))

    def putter():
        yield env.timeout(1)
        store.items.append("direct")
        yield store.put("put")
        log.append("put done")

    env.process(getter())
    env.process(putter())
    env.run()
    assert log == ["put done", ("got", "direct")]
    assert store.items == ["put"]



def _kernels(env, start_kernel):
    """Three contended kernels started by one process, each next to a timer
    due when it ends; returns the log of resumes in dispatch order."""
    stream = Resource(env, capacity=1)
    log = []

    def waiter(name, event):
        value = yield event
        log.append((name, env.now, env.events_processed, value))

    def launch():
        for delay in (2.0, 0.0, 1.5):
            kernel = start_kernel(stream, delay)
            env.process(waiter(f"kernel{delay}", kernel))
            env.process(waiter(f"timer{delay}", env.timeout(delay)))
            yield env.timeout(0.0)

    env.process(launch())
    steps = []
    while env.peek() < float("inf"):
        env.step()
        steps.append((env.now, env.events_processed, env.processes_started))
    return log, steps


def test_hold_runs_the_events_of_a_with_block_process():
    """A hold schedules what ``with request(): yield req; yield timeout``
    in a process does, in the same order: init, grant, timeout, end."""

    def generator_kernel(env):
        def start(stream, delay):
            def compute():
                with stream.request() as slot:
                    yield slot
                    yield env.timeout(delay)

            return env.process(compute())

        return start

    env_a, env_b = Environment(), Environment()
    held = _kernels(env_a, lambda stream, delay: stream.hold(delay, None, "compute"))
    assert held == _kernels(env_b, generator_kernel(env_b))
    log, steps = held
    assert [name for name, *_ in log if name.startswith("kernel")] == [
        "kernel2.0", "kernel0.0", "kernel1.5",
    ]
    assert steps[-1] == (3.5, len(steps), 10)


def test_hold_stretches_its_delay_at_the_grant():
    env = Environment()
    stream = Resource(env)
    calls = []

    def stretch(delay, now):
        calls.append((delay, now))
        return 3 * delay

    first = stream.hold(1.0)
    second = stream.hold(0.5, stretch)
    env.run()
    assert calls == [(0.5, 1.0)]
    assert (first.value, second.value, env.now) == (None, None, 2.5)


def test_a_failing_hold_releases_its_slot_before_it_fails():
    env = Environment()
    stream = Resource(env)
    log = []

    def stretch(delay, now):
        raise ValueError("stretch failed")

    def waiter(name, event):
        try:
            yield event
            log.append((name, env.now, "ok"))
        except ValueError as exc:
            log.append((name, env.now, str(exc)))

    hold = stream.hold(1.0, stretch)
    env.process(waiter("hold", hold))
    env.process(waiter("next", stream.hold(2.0)))
    env.run()
    assert log == [("hold", 0.0, "stretch failed"), ("next", 2.0, "ok")]
    assert stream.users == []


def test_a_hold_is_a_started_process_until_it_ends():
    env = Environment()
    stream = Resource(env)
    hold = stream.hold(1.0, name="compute")
    queued = stream.hold(0.0)
    assert (hold.name, queued.name) == ("compute", "hold")
    assert env.processes_started == 2
    assert sorted(p.name for p in env.blocked_processes()) == ["compute", "hold"]
    env.run(until=hold)
    assert env.blocked_processes() == [queued]
    env.run()
    assert env.blocked_processes() == [] and env.now == 1.0


def test_hold_arguments_are_refused_at_the_call():
    env = Environment()
    with pytest.raises(TypeError, match="PriorityResource"):
        PriorityResource(env).hold(1.0)
    for delay in (-1.0, float("nan")):
        with pytest.raises(SimulationError, match="negative or NaN"):
            Resource(env).hold(delay)
    with pytest.raises(TypeError, match="stretch must be callable"):
        Resource(env).hold(1.0, 2.0)
    assert env.processes_started == 0
