"""Minimal process-based discrete-event simulation kernel (SimPy-style)."""

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
)
from .resources import (
    Container,
    PriorityRequest,
    PriorityResource,
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
