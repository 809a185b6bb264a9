"""Training loop for the emulated distributed MoE model.

Owns the full step the paper's system performs each iteration: forward
through the paradigm executors, backward, paradigm-specific gradient
movement (``finish_backward``) and the optimizer step — plus per-step
metrics including the cross-machine traffic drawn from the CommLog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..tensorlib import Optimizer
from ..tensorlib.optim import global_grad_norm
from .model import DistributedMoETransformer

__all__ = ["StepMetrics", "DistributedTrainer"]


@dataclass(frozen=True)
class StepMetrics:
    """Observables of one training step."""

    step: int
    loss: float
    grad_norm: float
    learning_rate: float
    cross_machine_bytes: float

    def __str__(self) -> str:
        return (
            f"step {self.step:4d}  loss {self.loss:.4f}  "
            f"|grad| {self.grad_norm:.3f}  lr {self.learning_rate:.2e}  "
            f"wire {self.cross_machine_bytes / 1e6:.1f} MB"
        )


class DistributedTrainer:
    """Drives training steps of a :class:`DistributedMoETransformer`."""

    def __init__(
        self,
        model: DistributedMoETransformer,
        optimizer: Optimizer,
    ):
        self.model = model
        self.optimizer = optimizer
        self.step_count = 0
        self.history: List[StepMetrics] = []

    def step(
        self,
        worker_tokens: Sequence[np.ndarray],
        worker_targets: Sequence[np.ndarray],
    ) -> StepMetrics:
        """One synchronous training step across all emulated workers."""
        wire_before = self.model.comm_log.cross_machine_bytes()
        self.optimizer.zero_grad()
        loss = self.model.loss(list(worker_tokens), list(worker_targets))
        loss.backward()
        self.model.finish_backward()
        grad_norm = global_grad_norm(self.optimizer.parameters)
        self.optimizer.step()

        metrics = StepMetrics(
            step=self.step_count,
            loss=loss.item(),
            grad_norm=grad_norm,
            learning_rate=self.optimizer.lr,
            cross_machine_bytes=(
                self.model.comm_log.cross_machine_bytes() - wire_before
            ),
        )
        self.history.append(metrics)
        self.step_count += 1
        return metrics

    @property
    def last_loss(self) -> Optional[float]:
        return self.history[-1].loss if self.history else None
