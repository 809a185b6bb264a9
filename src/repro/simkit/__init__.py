"""Minimal process-based discrete-event simulation kernel (SimPy-style)."""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    StalledSimulationError,
    Timeout,
)
from .resources import (
    Container,
    PriorityRequest,
    PriorityResource,
    Release,
    Request,
    Resource,
    Store,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "PriorityRequest",
    "PriorityResource",
    "Process",
    "Release",
    "Request",
    "Resource",
    "SimulationError",
    "StalledSimulationError",
    "Store",
    "Timeout",
]
