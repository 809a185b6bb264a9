"""Minimal process-based discrete-event simulation kernel (SimPy-style).

The event types come from :mod:`repro.simkit.core`; the shared-resource
primitives are the compiled extension's types, bound here: FIFO and
priority-ordered resources (semaphores with queueing), an item store and
a numeric container.  All follow the SimPy usage idiom::

    with resource.request() as req:
        yield req
        ...critical section...

Releases happen either via the context manager or an explicit
``resource.release(request)``.  ``Resource.users`` holds the granted
requests; the wait queue is private.  ``resource.hold(delay)`` runs that
whole idiom -- claim a slot, hold it ``delay``, release -- as one
compiled process to wait on, with no generator (see
:mod:`repro.simkit.core`).

Arguments that could only block forever are refused at the call with
:class:`SimulationError`: a ``Resource`` capacity that is not a positive
integer, a NaN ``Store`` or ``Container`` capacity, a NaN request
priority, a negative or NaN hold delay, and a ``Container`` amount
that is not finite or exceeds the capacity.
"""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Process,
    SimulationError,
    StalledSimulationError,
    Timeout,
    _ext,
)

Container = _ext.Container
PriorityRequest = _ext.PriorityRequest
PriorityResource = _ext.PriorityResource
Request = _ext.Request
Resource = _ext.Resource
Store = _ext.Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Container",
    "Environment",
    "Event",
    "PriorityRequest",
    "PriorityResource",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "StalledSimulationError",
    "Store",
    "Timeout",
]
