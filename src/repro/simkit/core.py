"""Discrete-event simulation kernel.

A small, dependency-free process-based discrete-event engine in the style of
SimPy.  Processes are Python generators that ``yield`` events; the
:class:`Environment` advances simulated time and resumes processes when the
events they wait on are triggered.

The kernel is deterministic: events scheduled at the same simulated time are
processed in insertion order (a monotonically increasing sequence number
breaks ties in the event heap).

The pure-python classes below are the reference kernel.  When the compiled
event kernel builds, its ``Event``, ``Timeout``, ``Process``,
``Condition``/``AllOf``/``AnyOf`` and ``Environment`` base replace them
with the same event order (and its resource types replace those of
``resources.py``); ``KERNEL`` names the kernel in use.

The compiled event kernel
-------------------------

It is the per-event hot path of this module as C in the simulator's one
extension module (``repro/_native.c``, built, cached and imported by
:mod:`repro._native`, which also holds the fluid network's kernel):
``Event`` (trigger, callback dispatch and accessors), ``Timeout``,
``Process`` (its resume loop), ``Condition``/``AllOf``/``AnyOf`` and an
``Environment`` base type (schedule, pop, ``step``, the ``run`` loop, the
instant-end hook flush, ``peek``, ``timeout`` and ``event``); and every
wait primitive of :mod:`repro.simkit.resources`: ``Resource``/``Request``,
``PriorityResource``/``PriorityRequest``, ``Store`` with
``StorePut``/``StoreGet`` and ``Container`` with
``ContainerPut``/``ContainerGet``.  One simulated event used to cost
about five Python frames (``step`` → ``_process_callbacks`` →
``Process._resume``, plus ``_schedule`` and ``succeed``); now it costs
the generator's own frame, and a request, put or get adds no frame.  It
reproduces the reference's event order exactly, because every golden
pins it:

* The queue is a flat binary heap keyed by ``(time, priority, eid)``
  plus a FIFO ring for zero-delay, priority-1 schedules (every
  ``succeed``/``fail`` and delay-0 timeout).  Eids are handed out at
  schedule time, so the ring is in eid order and all of it is due at
  ``now``.  A heap head wins over the ring head only when it is due at
  ``now`` and ``(priority, eid) < (1, ring eid)``: exactly ``step()``'s
  merge rule over the reference's bucket heap and deque, which is the
  ``(time, priority, eid)`` order of one flat heap.
* A timeout's due time is ``now + delay``, one double add.
* A process waiting on an event registers itself (not a bound method)
  as the callback, and the dispatch resumes it without a call through
  Python.  A condition registers itself the same way, and the dispatch
  counts it in C; constituents already processed are checked at
  construction, in list order, and the first failure is defused and
  propagated.  A process holds no reference to the event it waits on,
  and the kernel tracks no running process: nothing preempts a process,
  so the resume loop writes no per-wait state.  ``callbacks`` stays a
  real list that Python code may append to, and reads ``None`` once the
  event is processed.
* The wait primitives create and schedule the same events in the same
  order as the reference: a ``Resource`` grants in FIFO order; a
  ``PriorityResource`` keeps its waiters in a binary heap keyed by
  ``(priority, request time, global seq)``, whose head is the request
  the reference's stable sort puts first (the keys are distinct); the
  ``Store`` and ``Container`` trigger loops serve a put before a get in
  each pass.  ``users`` and ``items`` are real lists, and a container's
  ``level`` and ``min_level`` move by the reference's own number
  arithmetic (an int container stays int).
* Real generators resume through ``PyIter_Send`` (Python >= 3.10); any
  other iterator with ``send``/``throw`` methods, such as a tracing
  proxy, is resumed through those methods.
* Every type implements ``tp_traverse``/``tp_clear``: events, processes,
  resources and the environment form reference cycles.  ``Timeout``,
  ``AllOf``, ``AnyOf``, ``PriorityRequest``, ``PriorityResource`` and
  ``StoreGet`` add no object fields, so they leave
  ``Py_TPFLAGS_HAVE_GC`` unset and inherit their base's GC support (a
  static subtype that sets the flag without its own traverse fails
  ``PyType_Ready``).

What stays in Python: the ``Environment`` subclass whose own ``run``,
``process`` and ``defer_to_instant_end`` external tracers patch.  This
module and ``resources.py`` bind the C types under the reference names
once ``_native.extension()`` has picked the kernel.  Without a compiler
or the Python headers, the pure-python classes stay and the fluid
network keeps its numpy kernel, and one ``RuntimeWarning`` says why;
``REPRO_WATERFILL=python`` selects both silently.

The kernel carries only what the simulator runs: a process waits on one
event, on all of several (:class:`AllOf`) or on the first of several
(:class:`AnyOf`), and is never preempted.  A condition triggers with
``None``; callers test their constituents' ``triggered``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

from .. import _native

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "StalledSimulationError",
]


class SimulationError(Exception):
    """Raised for malformed use of the simulation kernel."""


class StalledSimulationError(SimulationError):
    """The event queue drained while processes were still blocked.

    A stall is almost always a lost wakeup: a process is waiting on an event
    nobody will ever trigger (the canonical example is a pull whose request
    the fault injector dropped, waited on with no
    :func:`~repro.faults.retry_flow` timer to give up on it).  The
    exception names the blocked processes so the deadlock is diagnosable
    instead of silently returning control to the caller.
    """

    def __init__(self, processes, reason: str = "event queue exhausted"):
        self.processes = list(processes)
        names = ", ".join(p.name for p in self.processes) or "<none>"
        super().__init__(
            f"simulation stalled: {reason} with "
            f"{len(self.processes)} blocked process(es): {names}"
        )


_PENDING = object()


class Event:
    """An event that may be triggered once with a value or an exception.

    Processes wait on events by yielding them.  Callbacks registered through
    :attr:`callbacks` run when the event is processed by the environment.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value is not yet available")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        self.env._schedule(self)
        return self

    def _process_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self._defused:
            raise self._exception

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after its creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which would poison the heap
            raise SimulationError(f"negative or NaN timeout delay: {delay}")
        # Event.__init__ inlined: timeouts are the hottest event kind.
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self._defused = False
        env._schedule(self, delay=delay)


class Initialize(Event):
    """Internal event that starts a process at the current time."""

    __slots__ = ()

    def __init__(
        self, env: "Environment", process: "Process", priority: int = 1
    ):
        super().__init__(env)
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, priority=priority)


class Process(Event):
    """Wraps a generator; the process itself is an event that triggers when
    the generator returns (with its return value) or raises."""

    __slots__ = ("_generator", "name", "daemon")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
        daemon: bool = False,
        priority: int = 1,
    ):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Daemon processes (e.g. server listen loops) are expected to stay
        # blocked forever and are exempt from stall detection.
        self.daemon = daemon
        env.processes_started += 1
        env._alive.add(self)
        # ``priority`` orders the process's first dispatch among same-time
        # events: priority > 1 starts only after all normal-priority work
        # scheduled for the current instant (background lanes, e.g. the
        # overlapped gradient all-reduce of the task-graph scheduler).
        Initialize(env, self, priority=priority)

    def _resume(self, event: Event) -> None:
        while True:
            try:
                if event._exception is not None:
                    event._defused = True
                    target = self._generator.throw(event._exception)
                else:
                    target = self._generator.send(event._value)
            except StopIteration as stop:
                self.env._alive.discard(self)
                self.succeed(getattr(stop, "value", None))
                return
            except BaseException as exc:
                self.env._alive.discard(self)
                self.fail(exc)
                return

            if not isinstance(target, Event):
                raise SimulationError(
                    f"process yielded a non-event: {target!r}"
                )
            if target.callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = target
                continue
            target.callbacks.append(self._resume)
            return


class Environment:
    """Coordinates event scheduling and process execution."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # Calendar-bucket front-end on the heap: the heap holds one
        # ``(time, priority)`` key per distinct scheduling instant, and the
        # events themselves sit in per-key FIFO buckets.  Dense-timer
        # regimes (hundreds of compute kernels finishing at the same
        # simulated instant at fleet scale) then cost one heap push for the
        # whole cohort instead of one per event, and draining a cohort is a
        # bucket walk, not repeated heap pops.  Bucket FIFO order is eid
        # order (eids are handed out monotonically at schedule time), so
        # the merged pop order is exactly the (time, priority, eid) order
        # of a single flat heap.
        self._queue: List = []
        self._buckets: dict = {}
        # Zero-delay, normal-priority schedules (the vast majority: every
        # succeed()/fail() and delay-0 timeout) bypass the heap.  Invariant:
        # every entry was enqueued at the current ``_now``, so the deque is
        # already in (time, priority, eid) order and ``_now`` cannot advance
        # while it is non-empty.
        self._immediate: deque = deque()
        # Callbacks to run when the current instant's cohort has fully
        # drained (no event due at ``_now`` remains), just before the clock
        # would advance.  This is how the fluid network recomputes rates
        # once per same-timestamp cohort instead of once per event.
        self._instant_hooks: List[Callable[[], None]] = []
        self._eid = 0
        self._alive: set = set()
        # Kernel accounting (harvested by repro.metrics; never read by the
        # simulation itself).
        self.events_processed = 0
        self.processes_started = 0

    @property
    def now(self) -> float:
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator,
        name: Optional[str] = None,
        daemon: bool = False,
        priority: int = 1,
    ) -> Process:
        return Process(
            self, generator, name=name, daemon=daemon, priority=priority
        )

    def blocked_processes(self) -> List[Process]:
        """Non-daemon processes that are alive (started, not finished)."""
        return [p for p in self._alive if not p.daemon]

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        self._eid += 1
        if delay == 0.0 and priority == 1:
            self._immediate.append((self._eid, event))
        else:
            key = (self._now + delay, priority)
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = bucket = deque()
                heapq.heappush(self._queue, key)
            bucket.append((self._eid, event))

    def defer_to_instant_end(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the current instant's cohort has drained.

        The callback fires after every event due at the current simulated
        time has been processed, immediately before the clock would advance
        (or the queue exhausts).  Callbacks may schedule new events — at
        the current instant or later — in which case those are processed
        (and the hooks re-flushed) before time moves.
        """
        self._instant_hooks.append(callback)

    def _instant_drained(self) -> bool:
        """No event due at the current instant remains."""
        if self._immediate:
            return False
        queue = self._queue
        return not queue or queue[0][0] > self._now

    def _flush_instant_hooks(self) -> None:
        while self._instant_hooks and self._instant_drained():
            hooks = self._instant_hooks
            self._instant_hooks = []
            for hook in hooks:
                hook()

    def peek(self) -> float:
        """Time of the next scheduled activity, or +inf if none.

        Pending instant-end hooks count as activity at the current time:
        they may schedule events at ``now`` when they run.
        """
        if self._immediate or self._instant_hooks:
            return self._now
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the next scheduled event.

        The merged pop order over the heap buckets and the immediate deque
        is exactly the (time, priority, eid) order a single flat heap would
        give: bucket times are always >= ``_now``, so a bucket entry wins
        only when it is at the current time with a higher priority or an
        earlier eid than the oldest immediate event.  When the current
        instant has fully drained, pending instant-end hooks run before
        the clock advances.
        """
        immediate = self._immediate
        queue = self._queue
        if self._instant_hooks and not immediate and (
            not queue or queue[0][0] > self._now
        ):
            self._flush_instant_hooks()
        if immediate:
            event = None
            if queue:
                key = queue[0]
                if key[0] == self._now:
                    bucket = self._buckets[key]
                    if (key[1], bucket[0][0]) < (1, immediate[0][0]):
                        event = bucket.popleft()[1]
                        if not bucket:
                            del self._buckets[key]
                            heapq.heappop(queue)
            if event is None:
                event = immediate.popleft()[1]
        else:
            if not queue:
                raise SimulationError("no more events to process")
            key = queue[0]
            bucket = self._buckets[key]
            event = bucket.popleft()[1]
            if not bucket:
                del self._buckets[key]
                heapq.heappop(queue)
            self._now = key[0]
        self.events_processed += 1
        event._process_callbacks()

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        Returns the value of ``until`` when it is an event.
        """
        stop_event, stop_time = _stop_condition(self, until)
        queue = self._queue
        immediate = self._immediate
        step = self.step
        while queue or immediate or self._instant_hooks:
            if stop_event is not None and stop_event.callbacks is None:
                break
            if stop_time is not None and self.peek() > stop_time:
                self._now = stop_time
                break
            if self._instant_hooks and not immediate and (
                not queue or queue[0][0] > self._now
            ):
                # The current instant has drained: run the instant-end
                # hooks, then re-apply the stop checks before any event
                # they scheduled (possibly later than ``until``) runs.
                self._flush_instant_hooks()
                continue
            step()
        return _run_result(self, stop_event, stop_time)


def _stop_condition(env, until: Any):
    """``run(until)``'s (stop event, stop time) pair."""
    if isinstance(until, Event):
        return until, None
    if until is None:
        return None, None
    stop_time = float(until)
    if not math.isfinite(stop_time):
        raise SimulationError(f"until={stop_time} is not a finite time")
    if stop_time < env.now:
        raise SimulationError(f"until={stop_time} is in the past (now={env.now})")
    return None, stop_time


def _run_result(env, stop_event: Optional[Event], stop_time: Optional[float]) -> Any:
    """``run()``'s outcome once its loop has stopped: the stop event's
    value, the clock set to the stop time, or a stall diagnosis."""
    if stop_event is not None:
        if stop_event.processed:
            return stop_event.value
        raise StalledSimulationError(
            sorted(env.blocked_processes(), key=lambda p: p.name),
            reason="run() finished but the awaited event never triggered",
        )
    if stop_time is not None:
        env._now = stop_time
        return None
    blocked = env.blocked_processes()
    if blocked:
        raise StalledSimulationError(sorted(blocked, key=lambda p: p.name))
    return None


_ckernel = _native.extension()
KERNEL = "python" if _ckernel is None else "compiled"

if _ckernel is not None:
    # The compiled kernel (see the module docstring) replaces the reference
    # classes above with the same event order.  Tracers patch ``run``, ``process``
    # and ``defer_to_instant_end`` in this class's own ``__dict__``, so all
    # three are entries of it: the last two are the C methods, and ``run``
    # wraps the compiled loop in the reference's ``until`` handling.
    _Reference = Environment
    Event = _ckernel.Event  # noqa: F811
    Timeout = _ckernel.Timeout  # noqa: F811
    Process = _ckernel.Process  # noqa: F811

    class Environment(_ckernel.Environment):  # noqa: F811
        __doc__ = _Reference.__doc__
        process = _ckernel.Environment.process
        defer_to_instant_end = _ckernel.Environment.defer_to_instant_end
        blocked_processes = _Reference.blocked_processes

        def run(self, until: Any = None) -> Any:
            """Run until ``until`` (a time, an event, or exhaustion).

            Returns the value of ``until`` when it is an event.
            """
            stop_event, stop_time = _stop_condition(self, until)
            self._run(stop_event, stop_time)
            return _run_result(self, stop_event, stop_time)


class Condition(Event):
    """Waits on a set of events until ``evaluate`` says the condition holds.

    A condition triggers with ``None``, or fails with the first
    constituent failure.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[int, int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        if not self._events:
            self.succeed()
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if event._exception is not None:
            event._defused = True
            self.fail(event._exception)
        elif self._evaluate(len(self._events), self._count):
            self.succeed()


def _all_done(total: int, done: int) -> bool:
    return done == total


def _any_done(total: int, done: int) -> bool:
    return done >= 1


class AllOf(Condition):
    """Triggered when all constituent events have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, _all_done, events)


class AnyOf(Condition):
    """Triggered when any constituent event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, _any_done, events)


if _ckernel is not None:
    _ckernel.setup(SimulationError, _PENDING)
    Condition = _ckernel.Condition  # noqa: F811
    AllOf = _ckernel.AllOf  # noqa: F811
    AnyOf = _ckernel.AnyOf  # noqa: F811
