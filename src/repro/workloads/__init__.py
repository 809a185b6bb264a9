"""Synthetic workloads: token batches, routing distributions and
drifting expert-popularity processes."""

from .drift import DriftSpec, apply_drift, drift_weights
from .tokens import (
    assignment_imbalance,
    balanced_assignment,
    target_batches,
    token_batches,
    zipf_weights,
)

__all__ = [
    "DriftSpec",
    "apply_drift",
    "drift_weights",
    "assignment_imbalance",
    "balanced_assignment",
    "target_batches",
    "token_batches",
    "zipf_weights",
]
