"""The event core and wait primitives in pure Python: the reference.

The twin of the extension's ``Event``, ``Timeout``, ``Process``,
``Environment`` base, ``Condition``/``AllOf``/``AnyOf`` and wait
primitives (``Request``/``Resource`` with ``Resource.hold``, whose
process here runs a ``with``-block generator, ``PriorityRequest``/
``PriorityResource``, ``StorePut``/``StoreGet``/``Store`` and
``ContainerPut``/``ContainerGet``/``Container``), with the same event
order.  Like the extension's types, these carry no ``run``: the
``Environment`` base offers ``_run(stop_event, stop_time)``, and
:func:`setup` binds the exception class the kernel raises and the
not-yet-triggered sentinel, both owned by :mod:`repro.simkit.core`.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

# Bound by setup() when repro.simkit.core binds this kernel.
SimulationError: Any = None
_PENDING: Any = None


def setup(error: type, pending: object) -> None:
    """Bind the exception class the kernel raises and the sentinel of a
    not-yet-triggered event's value."""
    global SimulationError, _PENDING
    SimulationError = error
    _PENDING = pending


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


class _Initialize(Event):
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
        _Initialize(env, self, priority=priority)

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

    def _run(self, stop_event: Optional[Event], stop_time: Optional[float]) -> None:
        """``run()``'s loop: step until the queue and the instant-end
        hooks are exhausted, ``stop_event`` is processed, or the next
        activity lies past ``stop_time`` (the clock then moves to it)."""
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


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger_requests()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


class Resource:
    """A resource with ``capacity`` slots and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        try:
            slots = operator.index(capacity)
        except TypeError:
            slots = 0
        if slots <= 0:
            raise SimulationError(
                f"resource capacity must be a positive integer, got {capacity!r}"
            )
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self._queue: List[Request] = []

    def request(self) -> Request:
        return Request(self)

    def hold(self, delay: float, stretch=None, name: Optional[str] = None) -> Process:
        """Start a process that holds one slot for ``delay`` once granted
        (``stretch(delay, now)`` at the grant when given), then releases
        it and triggers with None."""
        if isinstance(self, PriorityResource):
            raise TypeError(
                "a PriorityResource cannot hold; request a slot with a priority instead"
            )
        if not delay >= 0:
            raise SimulationError(f"negative or NaN timeout delay: {delay}")
        if stretch is not None and not callable(stretch):
            raise TypeError(f"stretch must be callable, not {stretch!r}")
        return Hold(self.env, _hold(self, delay, stretch), name=name or "hold")

    def release(self, request: Request) -> None:
        """Free the slot held by ``request`` (no-op if it never got one)."""
        if request in self.users:
            self.users.remove(request)
            self._trigger_requests()
        else:
            request.cancel()

    def _sort_queue(self) -> None:
        """Hook for subclasses that keep an ordered queue."""

    def _trigger_requests(self) -> None:
        self._sort_queue()
        while self._queue and len(self.users) < self.capacity:
            request = self._queue.pop(0)
            self.users.append(request)
            request.succeed()


class Hold(Process):
    """The process :meth:`Resource.hold` starts: it holds one slot for a
    delay and triggers with None once it has released it."""

    __slots__ = ()


def _hold(resource: Resource, delay: float, stretch) -> Generator:
    """The generator behind :meth:`Resource.hold`."""
    with resource.request() as slot:
        yield slot
        if stretch is not None:
            delay = stretch(delay, resource.env.now)
        yield resource.env.timeout(delay)


class PriorityRequest(Request):
    """Request with a priority; smaller value means earlier service."""

    __slots__ = ("priority", "time", "seq")

    _seq = 0

    def __init__(self, resource: "PriorityResource", priority: float = 0.0):
        if priority != priority:
            raise SimulationError("request priority must not be NaN")
        self.priority = priority
        PriorityRequest._seq += 1
        self.time = resource.env.now
        self.seq = PriorityRequest._seq
        super().__init__(resource)

    @property
    def key(self):
        return (self.priority, self.time, self.seq)


class PriorityResource(Resource):
    """A resource whose wait queue is ordered by request priority."""

    def request(self, priority: float = 0.0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _sort_queue(self) -> None:
        self._queue.sort(key=lambda request: request.key)  # type: ignore[attr-defined]


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._get_queue.append(self)
        store._trigger()


class Store:
    """A FIFO item buffer with optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if not capacity > 0:
            raise SimulationError(f"store capacity must be positive, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_queue: List[StorePut] = []
        self._get_queue: List[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            if self._get_queue and self.items:
                get = self._get_queue.pop(0)
                get.succeed(self.items.pop(0))
                progressed = True


def _check_amount(kind: str, container: "Container", amount: float) -> None:
    """Refuse an amount no put or get could ever move."""
    if not (0 < amount <= container.capacity and math.isfinite(amount)):
        raise SimulationError(
            f"{kind} amount must be positive, finite and at most the "
            f"capacity, got {amount!r}"
        )


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        _check_amount("put", container, amount)
        super().__init__(container.env)
        self.amount = amount
        container._put_queue.append(self)
        container._trigger()


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        _check_amount("get", container, amount)
        super().__init__(container.env)
        self.amount = amount
        container._get_queue.append(self)
        container._trigger()


class Container:
    """A homogeneous quantity (e.g. credits, bytes of buffer space)."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if not capacity > 0:
            raise SimulationError(
                f"container capacity must be positive, got {capacity!r}"
            )
        if not 0 <= init <= capacity:
            raise SimulationError("init level out of range")
        self.env = env
        self.capacity = capacity
        self._level = init
        self.min_level = init
        self._put_queue: List[ContainerPut] = []
        self._get_queue: List[ContainerGet] = []

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if (
                self._put_queue
                and self._level + self._put_queue[0].amount <= self.capacity
            ):
                put = self._put_queue.pop(0)
                self._level += put.amount
                put.succeed()
                progressed = True
            if self._get_queue and self._level >= self._get_queue[0].amount:
                get = self._get_queue.pop(0)
                self._level -= get.amount
                self.min_level = min(self.min_level, self._level)
                get.succeed(get.amount)
                progressed = True
