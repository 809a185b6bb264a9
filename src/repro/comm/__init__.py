"""Pull-based communication substrate (paper §6): socket control plane +
RDMA data plane."""

from .endpoint import ControlPlane, Endpoint
from .messages import ControlMessage, GradPush, PullRequest
from .pull import PullFailedError, PullServer, PullTransport

__all__ = [
    "ControlMessage",
    "ControlPlane",
    "Endpoint",
    "GradPush",
    "PullFailedError",
    "PullRequest",
    "PullServer",
    "PullTransport",
]
