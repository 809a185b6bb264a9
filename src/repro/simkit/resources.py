"""Shared-resource primitives for the simulation kernel.

Provides FIFO and priority-ordered resources (semaphores with queueing),
an item store, and a numeric container.  All follow the SimPy usage idiom::

    with resource.request() as req:
        yield req
        ...critical section...

Releases happen either via the context manager or an explicit
``resource.release(request)``.  ``Resource.users`` holds the granted
requests; the wait queue is private.

Arguments that could only block forever are refused at the call with
:class:`SimulationError`: a ``Resource`` capacity that is not a positive
integer, a NaN ``Store`` or ``Container`` capacity, a NaN request
priority, and a ``Container`` amount that is not finite or exceeds the
capacity.

The classes below are the reference.  When the compiled event kernel
builds, its C types of the same names replace them with the same event
order (see ``core.py``).
"""

from __future__ import annotations

import math
import operator
from typing import Any, List

from . import core
from .core import Environment, Event, SimulationError

__all__ = [
    "Request",
    "Resource",
    "PriorityRequest",
    "PriorityResource",
    "Store",
    "Container",
]


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


if core._ckernel is not None:
    _ckernel = core._ckernel
    Request = _ckernel.Request  # noqa: F811
    Resource = _ckernel.Resource  # noqa: F811
    PriorityRequest = _ckernel.PriorityRequest  # noqa: F811
    PriorityResource = _ckernel.PriorityResource  # noqa: F811
    StorePut = _ckernel.StorePut  # noqa: F811
    StoreGet = _ckernel.StoreGet  # noqa: F811
    Store = _ckernel.Store  # noqa: F811
    ContainerPut = _ckernel.ContainerPut  # noqa: F811
    ContainerGet = _ckernel.ContainerGet  # noqa: F811
    Container = _ckernel.Container  # noqa: F811
