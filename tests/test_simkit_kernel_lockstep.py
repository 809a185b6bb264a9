"""Stateful fuzzer: the compiled and the pure-python event kernels in lockstep.

A hypothesis state machine builds the same random simulation on two
environments, one on the compiled kernel (``repro.simkit``) and one on
the reference kernel (:func:`tests.conftest.reference_simkit`).  Each
process runs a random program of timeouts (equal-time ones included),
waits on events, ``AllOf``/``AnyOf`` over processed and pending events,
``succeed``/``fail`` calls and instant-end hooks that schedule more
events; some start at ``priority > 1``.  Rules also trigger from
outside, and drive the clock with ``run(until=time)`` and
``run(until=event)``.

Both sides log every resume with the clock, the value received and every
exception that escapes a drive; after every rule the logs, the clock,
``peek()``, ``events_processed`` and each event's state must be equal.
Every program is finite, so each drive ends; the clock advances and the
final drain are ``step()`` loops under a hard budget all the same.
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import repro.simkit
from tests.conftest import reference_simkit

_STEP_BUDGET = 5000
_delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])
_index = st.integers(min_value=0, max_value=31)
_op = st.one_of(
    st.tuples(st.just("timeout"), _delays),
    st.tuples(st.just("wait"), _index),
    st.tuples(st.just("all_of"), st.lists(_index, max_size=3)),
    st.tuples(st.just("any_of"), st.lists(_index, min_size=1, max_size=3)),
    st.tuples(st.just("succeed"), _index),
    st.tuples(st.just("fail"), _index),
    st.tuples(st.just("defer"), _delays),
    st.tuples(st.just("raise"), st.none()),
)


def _outcome(exc: BaseException):
    """An exception as both kernels can compare it (their classes differ)."""
    return (type(exc).__name__, str(exc))


class _Side:
    """One kernel's environment, the events it tracks and its log."""

    def __init__(self, simkit, start: float):
        self.simkit = simkit
        self.env = simkit.Environment(start)
        self.events = []  # events and processes, in creation order
        self.log = []

    def track(self, event):
        self.events.append(event)
        return event

    def pick(self, index: int):
        return self.events[index % len(self.events)] if self.events else None

    def record(self, *entry):
        self.log.append((self.env.now,) + entry)

    def act(self, label: str, kind: str, arg):
        """The ops that do not wait; returns the event to wait on, if any."""
        env, simkit = self.env, self.simkit
        if kind == "timeout":
            return env.timeout(arg, value=label)
        if kind == "wait":
            return self.pick(arg)
        if kind in ("all_of", "any_of"):
            events = [self.pick(index) for index in arg if self.events]
            if kind == "any_of" and not events:
                return None
            return (simkit.AllOf if kind == "all_of" else simkit.AnyOf)(env, events)
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

    def hook(self, label: str, delay: float):
        self.record(label, "hook")
        timer = self.env.timeout(delay, value=label)
        timer.callbacks.append(lambda event: self.record(label, "hook-timer", event.value))

    def program(self, name: str, ops):
        for step, (kind, arg) in enumerate(ops):
            label = f"{name}.{step}"
            try:
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


class LockstepKernels(RuleBasedStateMachine):
    """Compiled side ``a`` and reference side ``b``."""

    @initialize(start=st.sampled_from([0.0, 1.0, 3.3e8]))
    def build(self, start):
        self.sides = (_Side(repro.simkit, start), _Side(reference_simkit(), start))
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

    @rule(kind=st.sampled_from(["succeed", "fail", "defer"]),
          arg=_index, delay=_delays)
    def act_from_outside(self, kind, arg, delay):
        label = f"outside{len(self.sides[0].log)}"
        self._each(lambda side: side.act(label, kind, delay if kind == "defer" else arg))

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
    repro.simkit.core.KERNEL != "compiled", reason="no C compiler on this host"
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

    instances = {
        "Environment": env,
        "Event": env.event(),
        "Timeout": env.timeout(1),
        "Process": env.process(program()),
    }
    return {
        kind: sorted(name for name in dir(obj) if not name.startswith("_"))
        for kind, obj in instances.items()
    }


@_compiled_only
def test_kernels_expose_the_same_public_names():
    """A feature added to (or left in) only one kernel fails here."""
    assert _public_names(repro.simkit) == _public_names(reference_simkit())
