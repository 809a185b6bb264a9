"""Typed messages of the pull protocol (paper §6).

Janus builds its pull primitive from the BytePS send/recv APIs: the control
plane runs over sockets (a requester sends a :class:`PullRequest`, the
target listens on its port) and the data plane over RDMA (the target
responds with the expert payload).  The gradient return path mirrors it
with :class:`GradPush`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable

from ..cluster import Device

__all__ = ["ControlMessage", "PullRequest", "GradPush"]

# Control messages are tiny; what matters on the wire is latency, not size.
CONTROL_BYTES = 64.0


@dataclass(frozen=True)
class ControlMessage:
    """Base class for control-plane messages."""

    sender: Device
    receiver: Device
    key: Hashable            # what is being pulled/pushed (e.g. (block, expert))
    message_id: int = field(default_factory=itertools.count().__next__)

    @property
    def wire_bytes(self) -> float:
        return CONTROL_BYTES


@dataclass(frozen=True)
class PullRequest(ControlMessage):
    """Ask ``receiver`` to send the payload named ``key``."""

    payload_bytes: float = 0.0

    def __post_init__(self):
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")


@dataclass(frozen=True)
class GradPush(ControlMessage):
    """Announce a gradient payload headed to ``receiver`` (the home worker)."""

    payload_bytes: float = 0.0

    def __post_init__(self):
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
