"""Deterministic fault injection and resilience policies.

The subsystem that turns the reproduction from happy-path-only into a
chaos-testable system: :class:`FaultPlan` describes seeded, time-windowed
adverse conditions (link degradation/flaps, server outages, control-message
loss, compute slowdown), :class:`FaultInjector` applies them to a live
fabric, and :class:`ResilienceConfig`/:func:`retry_flow`/
:class:`DegradationPolicy` give the schedulers the timeout/retry/fallback
machinery to survive them — the measurable form of the paper's §3.2 "less
synchronization" robustness claim.  A :class:`DegradationPolicy` acts
between iterations only as the fault arm of a
:class:`~repro.control.ControlPolicy` (its ``degradation`` argument)
inside the engine's :class:`~repro.control.Controller`.
"""

from .injector import FaultInjector, FaultStats
from .resilience import (
    DegradationPolicy,
    PullFailedError,
    ResilienceConfig,
    flow_or_timeout,
    retry_flow,
)
from .spec import (
    LOSSABLE_MESSAGE_KINDS,
    ComputeSlowdown,
    FaultPlan,
    LinkFault,
    MessageLoss,
    ServerOutage,
)

__all__ = [
    "LOSSABLE_MESSAGE_KINDS",
    "ComputeSlowdown",
    "DegradationPolicy",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "LinkFault",
    "MessageLoss",
    "PullFailedError",
    "ResilienceConfig",
    "ServerOutage",
    "flow_or_timeout",
    "retry_flow",
]
