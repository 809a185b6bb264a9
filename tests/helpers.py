"""Helpers and oracles that only the tests call.

Each oracle reads the state of a simulator object and recomputes a
quantity the tests compare against; :class:`SGD` drives the runtime's
training-equivalence checks.  Nothing under ``src/`` calls them, so they
live here rather than on the objects they read.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.registry import _label_key
from repro.tensorlib import Optimizer, Tensor
from repro.trace.spans import _busy


# -- gate decisions ----------------------------------------------------------


def tokens_per_expert(decision, num_experts: int) -> np.ndarray:
    """Histogram of a gate decision's token-slot assignments over experts
    (dropped slots, marked -1, are excluded)."""
    flat = decision.expert_indices.reshape(-1)
    return np.bincount(flat[flat >= 0], minlength=num_experts)


def dropped_slots(decision) -> int:
    """Token-slots of a gate decision dropped by the capacity limit."""
    return int((decision.expert_indices < 0).sum())


# -- metrics -----------------------------------------------------------------


def histogram(registry, name: str, **labels):
    """A metrics registry's histogram of one label set, or None."""
    return registry._histograms.get(name, {}).get(_label_key(labels))


# -- fluid networks ----------------------------------------------------------


def active_flows(net) -> list:
    """The flows a fluid network has in flight, in ledger row order (its
    tombstoned rows hold None)."""
    return [flow for flow in net._active if flow is not None]


# -- the functional runtime's traffic ---------------------------------------


def _records(log, kinds):
    return [
        record for record in log.records
        if kinds is None or record.kind in kinds
    ]


def total_bytes(log, kinds=None) -> float:
    """Bytes a :class:`~repro.runtime.CommLog` recorded, of ``kinds``
    only when given."""
    return sum(record.num_bytes for record in _records(log, kinds))


def intra_machine_bytes(log, kinds=None) -> float:
    """Bytes a :class:`~repro.runtime.CommLog` moved between different
    ranks of the same machine (NVLink/PCIe class traffic, e.g. cache
    serves)."""
    return sum(
        record.num_bytes for record in _records(log, kinds)
        if record.src_rank != record.dst_rank
        and log.layout.same_machine(record.src_rank, record.dst_rank)
    )


def machine_egress_bytes(log, kinds=None) -> np.ndarray:
    """Cross-machine bytes of a ``CommLog`` sent by each machine."""
    return _machine_bytes(log, kinds, sender=True)


def machine_ingress_bytes(log, kinds=None) -> np.ndarray:
    """Cross-machine bytes of a ``CommLog`` received by each machine."""
    return _machine_bytes(log, kinds, sender=False)


def _machine_bytes(log, kinds, sender: bool) -> np.ndarray:
    totals = np.zeros(log.layout.num_machines)
    for record in _records(log, kinds):
        src = log.layout.machine_of(record.src_rank)
        dst = log.layout.machine_of(record.dst_rank)
        if src != dst:
            totals[src if sender else dst] += record.num_bytes
    return totals


def pulled_expert_count(executor) -> int:
    """Distinct (machine, expert) pulls of a data-centric executor's last
    iteration."""
    return len(executor._replicas)


# -- traces --------------------------------------------------------------------


def worker_busy_time(trace, worker: int, iteration=None) -> float:
    """Union busy time of every span a ``TraceRecorder`` attributes to one
    worker (all iterations when ``iteration`` is None)."""
    return _busy(
        (span.start, span.end)
        for span in trace.spans
        if span.worker == worker
        and (iteration is None or span.iteration == iteration)
    )


# -- tensors -------------------------------------------------------------------


def scatter_rows(num_rows: int, index: np.ndarray, values: Tensor) -> Tensor:
    """Inverse of the row gather ``x[index]``: ``out[index[i]] +=
    values[i]``, with its backward; the naive reference combine."""
    index = np.asarray(index)
    out_data = np.zeros((num_rows,) + values.shape[1:], dtype=values.data.dtype)
    np.add.at(out_data, index, values.data)

    def backward(grad):
        if values.requires_grad:
            values._accumulate_owned(grad[index])

    return values._make(out_data, (values,), backward)


# -- optimizers ----------------------------------------------------------------


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters, lr: float = 0.01, momentum: float = 0.0):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0 <= momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            if self.momentum:
                velocity *= self.momentum
                velocity += param.grad
                update = velocity
            else:
                update = param.grad
            param.data -= self.lr * update
