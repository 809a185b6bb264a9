"""Discrete-event simulation kernel.

A small, dependency-free process-based discrete-event engine in the style of
SimPy.  Processes are Python generators that ``yield`` events; the
:class:`Environment` advances simulated time and resumes processes when the
events they wait on are triggered.

The kernel is deterministic: events scheduled at the same simulated time are
processed in insertion order (a monotonically increasing sequence number
breaks ties in the event heap).

Every event type is the compiled event kernel's (below): ``Event``,
``Timeout``, ``Process``, ``Condition``/``AllOf``/``AnyOf`` and the
``Environment`` base, and the wait primitives that :mod:`repro.simkit`
binds.  This module adds the exceptions, ``run``'s ``until`` handling and
the ``Environment`` subclass.

The compiled event kernel
-------------------------

It is the per-event hot path of this module as C in the simulator's one
extension module (``repro/_native.c``, built, cached and imported by
:mod:`repro._native`, which also holds the fluid network's kernel):
``Event`` (trigger, callback dispatch and accessors), ``Timeout``,
``Process`` (its resume loop), ``Condition``/``AllOf``/``AnyOf`` and an
``Environment`` base type (schedule, pop, ``step``, the ``run`` loop, the
instant-end hook flush, ``peek``, ``timeout`` and ``event``); and every
wait primitive of :mod:`repro.simkit`: ``Resource``/``Request`` and
the resource's hold (below), ``PriorityResource``/``PriorityRequest``,
``Store`` with ``StorePut``/``StoreGet`` and ``Container`` with
``ContainerPut``/``ContainerGet``.  One simulated event used to cost
about five Python frames (``step`` → ``_process_callbacks`` →
``Process._resume``, plus ``_schedule`` and ``succeed``); now it costs
the generator's own frame, and a request, put or get adds no frame.  It
reproduces the event order of the pure-python reference (its twin in the
tests' ``tests/reference/simkit.py``, the one the per-event design below
calls "the reference") exactly, because every golden pins it:

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
  so the resume loop writes no per-wait state.  An event keeps its
  first callback in an inline slot, and allocates its ``callbacks``
  list only for a second one or when Python reads or assigns
  ``callbacks``: the read returns a real list that Python code may
  append to, which the event keeps (what C registers later lands in it,
  in registration order), and reads ``None`` once the event is
  processed.  So an event with one waiter carries no list.
* The wait primitives create and schedule the same events in the same
  order as the reference: a ``Resource`` grants in FIFO order; a
  ``PriorityResource`` keeps its waiters in a binary heap keyed by
  ``(priority, request time, global seq)``, whose head is the request
  the reference's stable sort puts first (the keys are distinct); the
  ``Store`` and ``Container`` trigger loops serve a put before a get in
  each pass.  ``users`` and ``items`` are real lists, and a container's
  ``level`` and ``min_level`` move by the reference's own number
  arithmetic (an int container stays int).
* ``Resource.hold(delay, stretch=None, name="hold")`` starts a process
  with no generator: a ``Process`` subtype whose resume is a
  seize-advance-release state machine.  Its init event requests one
  slot; at the grant it calls ``stretch(delay, now)`` when given and
  waits a ``Timeout``; at the timeout it releases the slot and triggers
  with ``None``.  These are the events, in the order, of a generator
  process running ``with resource.request() as slot: yield slot; yield
  env.timeout(delay)`` (the reference's ``hold`` is that generator),
  and it is counted, named and listed as a blocked process the same
  way.  A failure (a raising ``stretch``, a refused stretched delay)
  releases the slot before the hold fails, as the ``with`` block's exit
  does.  ``PriorityResource`` refuses it.  Every GPU kernel is one
  (``Fabric.compute``), so a kernel costs no generator frame and no
  Python resume.
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
module binds the C types, which :func:`repro._native.extension` builds
at the first import; without a compiler or the Python headers that
import fails with the compiler's error.

The kernel carries only what the simulator runs: a process waits on one
event, on all of several (:class:`AllOf`) or on the first of several
(:class:`AnyOf`), and is never preempted.  A condition triggers with
``None``; callers test their constituents' ``triggered``.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

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


_ext = _native.extension()
_ext.setup(SimulationError, _PENDING)

Event = _ext.Event
Timeout = _ext.Timeout
Process = _ext.Process
Condition = _ext.Condition
AllOf = _ext.AllOf
AnyOf = _ext.AnyOf


class Environment(_ext.Environment):
    """Coordinates event scheduling and process execution."""

    # Tracers patch ``run``, ``process`` and ``defer_to_instant_end`` in
    # this class's own ``__dict__``, so all three are entries of it: the
    # last two are the C methods, and ``run`` wraps the compiled loop in
    # the ``until`` handling below.
    process = _ext.Environment.process
    defer_to_instant_end = _ext.Environment.defer_to_instant_end

    def blocked_processes(self) -> List[Process]:
        """Non-daemon processes that are alive (started, not finished)."""
        return [p for p in self._alive if not p.daemon]

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        Returns the value of ``until`` when it is an event.
        """
        stop_event, stop_time = _stop_condition(self, until)
        self._run(stop_event, stop_time)
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
