"""The out-of-memory error of the device memory model.

Raised by :func:`repro.core.memory_model.check_fits` to reproduce the
paper's out-of-memory behaviour (Fig. 16: Tutel OOMs training MoE-BERT at
S=512 because the All-to-All receive buffers for the exchanged tokens
exceed GPU memory, while Janus only ever materializes one expert at a time
plus its token activations).
"""

from __future__ import annotations

__all__ = ["OutOfMemoryError"]


class OutOfMemoryError(RuntimeError):
    """Raised when a memory term exceeds what is left of device capacity."""

    def __init__(self, requested: float, available: float, capacity: float):
        super().__init__(
            f"out of memory: requested {requested / 1e9:.2f} GB with only "
            f"{available / 1e9:.2f} GB free of {capacity / 1e9:.2f} GB"
        )
        self.requested = requested
        self.available = available
        self.capacity = capacity

