"""Stateful fuzzer: the compiled and the pure-python event kernels in lockstep.

A hypothesis state machine builds the same random simulation on two
environments, one on the compiled kernel (``repro.simkit``) and one on
the reference kernel (:func:`tests.conftest.reference_simkit`).  Each
process runs a random program of timeouts (equal-time ones included),
waits on events, ``AllOf``/``AnyOf`` over processed and pending events,
``succeed``/``fail`` calls and instant-end hooks that schedule more
events; some start at ``priority > 1``.  Programs also use the wait
primitives: ``with``-scoped claims on a ``Resource`` and on a
``PriorityResource`` (equal priorities included), holds on the
``Resource`` (``Resource.hold``: zero delays included, with no
``stretch``, one that lengthens the hold and one that raises at the
grant, queued behind the claims and the bare requests that a release may
hand the slot on from), bare requests that any
op may later wait on, trigger or release (granted or not), puts and gets
on a bounded and an unbounded ``Store`` (whose ``items`` list they may
also append to directly), and ``Container`` puts and gets.
Rules also trigger and release from outside, and drive the clock with
``run(until=time)`` and ``run(until=event)``.

Both sides log every resume with the clock, the events processed so far
(so a reordering within an instant shows), the value received and every
exception that escapes a drive; after every rule the logs, the clock,
``peek()``, ``events_processed``, each event's state, the resources'
``users``, the stores' ``items`` and the container's ``level`` and
``min_level`` must be equal.
Every program is finite, so each drive ends; the clock advances and the
final drain are ``step()`` loops under a hard budget all the same.
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import repro.simkit
from tests.conftest import COMPILED, reference_simkit

_STEP_BUDGET = 5000
_delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])
_index = st.integers(min_value=0, max_value=31)
_priority = st.sampled_from([0, 1, 1])
_op = st.one_of(
    st.tuples(st.just("timeout"), _delays),
    st.tuples(st.just("wait"), _index),
    st.tuples(st.just("all_of"), st.lists(_index, max_size=3)),
    st.tuples(st.just("any_of"), st.lists(_index, min_size=1, max_size=3)),
    st.tuples(st.just("succeed"), _index),
    st.tuples(st.just("fail"), _index),
    st.tuples(st.just("defer"), _delays),
    st.tuples(st.just("raise"), st.none()),
    st.tuples(st.sampled_from(["claim", "priority_claim"]), st.tuples(_priority, _delays)),
    st.tuples(st.just("request"), st.tuples(st.booleans(), _priority)),
    st.tuples(st.just("release"), _index),
    st.tuples(st.sampled_from(["put", "get", "stock"]), st.booleans()),
    st.tuples(st.sampled_from(["container_put", "container_get"]), st.sampled_from([1, 2])),
    st.tuples(st.just("hold"), st.tuples(_delays, st.sampled_from([None, "stretch", "raise"]))),
)


def _outcome(exc: BaseException):
    """An exception as both kernels can compare it (their classes differ)."""
    return (type(exc).__name__, str(exc))


class _Side:
    """One kernel's environment, the events it tracks and its log."""

    def __init__(self, simkit, start: float, slots: int):
        self.simkit = simkit
        self.env = env = simkit.Environment(start)
        self.events = []  # events and processes, in creation order
        self.log = []
        self.resource = simkit.Resource(env, capacity=slots)
        self.arbiter = simkit.PriorityResource(env)
        self.stores = (simkit.Store(env, capacity=1), simkit.Store(env))
        self.credits = simkit.Container(env, capacity=3, init=2)
        self.requests = []  # bare requests, in creation order
        self.labels = {}  # request -> the label of the op that made it

    def track(self, event):
        self.events.append(event)
        return event

    def pick(self, index: int):
        return self.events[index % len(self.events)] if self.events else None

    def record(self, *entry):
        self.log.append((self.env.now, self.env.events_processed) + entry)

    def request(self, label: str, prioritized: bool, priority):
        request = (self.arbiter.request(priority=priority) if prioritized
                   else self.resource.request())
        self.labels[request] = label
        return request

    def claim(self, label: str, prioritized: bool, arg):
        """A ``with``-scoped request, held for a delay once granted."""
        priority, hold = arg
        with self.request(label, prioritized, priority) as request:
            yield request
            self.record(label, "granted")
            yield self.env.timeout(hold)

    def act(self, label: str, kind: str, arg):
        """The ops that do not wait; returns the event to wait on, if any."""
        env, simkit = self.env, self.simkit
        if kind == "request":
            self.requests.append(self.track(self.request(label, *arg)))
            return None
        if kind == "release":
            if self.requests:
                request = self.requests[arg % len(self.requests)]
                try:
                    request.resource.release(request)
                except simkit.SimulationError as exc:  # it granted a triggered request
                    self.record(label, "refused", _outcome(exc))
            return None
        if kind == "stock":  # ``items`` is a real list that code may edit
            self.stores[arg].items.append(label)
            return None
        if kind in ("put", "get"):
            store = self.stores[arg]
            return store.put(label) if kind == "put" else store.get()
        if kind in ("container_put", "container_get"):
            return self.credits.put(arg) if kind == "container_put" else self.credits.get(arg)
        if kind == "timeout":
            return env.timeout(arg, value=label)
        if kind == "wait":
            return self.pick(arg)
        if kind in ("all_of", "any_of"):
            events = [self.pick(index) for index in arg if self.events]
            if kind == "any_of" and not events:
                return None
            return (simkit.AllOf if kind == "all_of" else simkit.AnyOf)(env, events)
        if kind == "hold":
            delay, stretch = arg
            return self.track(self.resource.hold(delay, self.stretch(label, stretch), label))
        if kind == "defer":
            env.defer_to_instant_end(lambda: self.hook(label, arg))
            return None
        if kind == "raise":
            raise RuntimeError(label)
        target = self.pick(arg)
        if target is None:
            return None
        try:
            if kind == "succeed":
                target.succeed(label)
            else:
                target.fail(ValueError(label))
        except simkit.SimulationError as exc:
            self.record(label, "refused", _outcome(exc))
        return None

    def stretch(self, label: str, kind):
        """A hold's ``stretch``: none, one that logs its call and lengthens
        the hold, or one that raises at the grant."""
        if kind is None:
            return None

        def stretch(delay, now):
            self.record(label, "stretch", delay, now)
            if kind == "raise":
                raise ValueError(label)
            return 2 * delay + 0.5

        return stretch

    def hook(self, label: str, delay: float):
        self.record(label, "hook")
        timer = self.env.timeout(delay, value=label)
        timer.callbacks.append(lambda event: self.record(label, "hook-timer", event.value))

    def program(self, name: str, ops):
        for step, (kind, arg) in enumerate(ops):
            label = f"{name}.{step}"
            try:
                if kind in ("claim", "priority_claim"):
                    yield from self.claim(label, kind == "priority_claim", arg)
                    continue
                target = self.act(label, kind, arg)
                if target is None:
                    continue
                value = yield target
                self.record(label, "resumed", value)
            except ValueError as exc:
                self.record(label, "caught", _outcome(exc))
        return name

    def drive(self, until: float) -> int:
        """Step through every event due by ``until``; returns the steps."""
        env = self.env
        steps = 0
        while env.peek() <= until:
            assert steps < _STEP_BUDGET, f"no progress at now={env.now!r}"
            steps += 1
            try:
                env.step()
            except self.simkit.SimulationError as exc:
                if str(exc) == "no more events to process":
                    break  # the instant-end hooks ran and left nothing queued
                self.record("step", "raised", _outcome(exc))
            except Exception as exc:
                self.record("step", "raised", _outcome(exc))
        if env.now < until < math.inf:
            env.run(until=until)
        return steps

    def run(self, until):
        try:
            self.record("run", "returned", self.env.run(until=until))
        except Exception as exc:
            self.record("run", "raised", _outcome(exc))

    def state(self):
        return [
            (event.triggered, event.processed, event._exception is None)
            for event in self.events
        ]

    def holdings(self):
        """The wait primitives' visible state."""
        return (
            [self.labels.get(request, "hold") for request in self.resource.users],
            [self.labels[request] for request in self.arbiter.users],
            [list(store.items) for store in self.stores],
            self.credits.level,
            self.credits.min_level,
        )


class LockstepKernels(RuleBasedStateMachine):
    """Compiled side ``a`` and reference side ``b``."""

    @initialize(start=st.sampled_from([0.0, 1.0, 3.3e8]), slots=st.sampled_from([1, 2]))
    def build(self, start, slots):
        self.sides = (
            _Side(repro.simkit, start, slots),
            _Side(reference_simkit(), start, slots),
        )
        self.processes = 0

    def _each(self, action):
        return [action(side) for side in self.sides]

    @rule()
    def new_event(self):
        self._each(lambda side: side.track(side.env.event()))

    @rule(ops=st.lists(_op, min_size=1, max_size=6),
          priority=st.sampled_from([1, 1, 1, 2]))
    def spawn(self, ops, priority):
        name = f"p{self.processes}"
        self.processes += 1
        self._each(lambda side: side.track(
            side.env.process(side.program(name, ops), name=name, priority=priority)
        ))

    @rule(kind=st.sampled_from(["succeed", "fail", "defer", "release", "stock"]),
          arg=_index, delay=_delays)
    def act_from_outside(self, kind, arg, delay):
        label = f"outside{len(self.sides[0].log)}"
        if kind == "defer":
            arg = delay
        elif kind == "stock":
            arg = arg % 2
        self._each(lambda side: side.act(label, kind, arg))

    @rule(gap=_delays)
    def advance(self, gap):
        steps = self._each(lambda side: side.drive(side.env.now + gap))
        assert steps[0] == steps[1]

    @rule(gap=_delays)
    def run_until_time(self, gap):
        self._each(lambda side: side.run(side.env.now + gap))

    @rule(index=_index)
    def run_until_event(self, index):
        self._each(lambda side: side.run(side.pick(index)))

    @invariant()
    def kernels_agree(self):
        if not hasattr(self, "sides"):
            return
        a, b = self.sides
        assert a.log == b.log
        assert a.env.now == b.env.now
        assert a.env.peek() == b.env.peek()
        assert a.env.events_processed == b.env.events_processed
        assert a.env.processes_started == b.env.processes_started
        assert a.state() == b.state()
        assert a.holdings() == b.holdings()
        assert sorted(p.name for p in a.env.blocked_processes()) == sorted(
            p.name for p in b.env.blocked_processes()
        )

    def teardown(self):
        if not hasattr(self, "sides"):
            return
        self._each(lambda side: side.drive(math.inf))
        self.kernels_agree()


LockstepKernels.TestCase.settings = settings(
    max_examples=200, stateful_step_count=25, deadline=None
)


_compiled_only = pytest.mark.skipif(
    COMPILED is None, reason="the reference cores are installed"
)


@_compiled_only
class TestLockstepKernels(LockstepKernels.TestCase):
    pass


def _public_names(simkit):
    """Each kernel class's public attribute names, read off an instance
    (the reference sets some attributes in ``__init__``)."""
    env = simkit.Environment()

    def program():
        yield env.timeout(1)

    resource = simkit.Resource(env)
    arbiter = simkit.PriorityResource(env)
    store = simkit.Store(env)
    credits = simkit.Container(env, capacity=2, init=1)
    instances = {
        "Environment": env,
        "Event": env.event(),
        "Timeout": env.timeout(1),
        "Process": env.process(program()),
        "Condition": simkit.Condition(env, lambda total, done: done == total, [env.event()]),
        "AllOf": simkit.AllOf(env, [env.event()]),
        "AnyOf": simkit.AnyOf(env, []),
        "Resource": resource,
        "Hold": resource.hold(1),
        "Request": resource.request(),
        "PriorityResource": arbiter,
        "PriorityRequest": arbiter.request(priority=1),
        "Store": store,
        "StorePut": store.put("item"),
        "StoreGet": store.get(),
        "Container": credits,
        "ContainerPut": credits.put(1),
        "ContainerGet": credits.get(1),
    }
    return {
        kind: sorted(name for name in dir(obj) if not name.startswith("_"))
        for kind, obj in instances.items()
    }


@_compiled_only
def test_kernels_expose_the_same_public_names():
    """A feature added to (or left in) only one kernel fails here."""
    assert _public_names(repro.simkit) == _public_names(reference_simkit())
