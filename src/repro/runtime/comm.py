"""Communication accounting for the functional runtime.

Every byte the emulated workers exchange is recorded here, so tests can
check the emulated traffic against the closed forms of §5.1.3 and the
benchmarks can regenerate Table 1 from an actual run rather than from the
formula alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .layout import RankLayout

__all__ = ["CommRecord", "CommLog"]

KINDS = (
    "dispatch",        # EC forward: tokens to expert owners
    "combine",         # EC forward: expert outputs back to token owners
    "dispatch_grad",   # EC backward: grads of expert outputs to owners
    "combine_grad",    # EC backward: grads of tokens back
    "expert_pull",     # DC forward: expert weights pulled
    "grad_push",       # DC backward: pre-reduced expert grads pushed home
)


@dataclass(frozen=True)
class CommRecord:
    kind: str
    src_rank: int
    dst_rank: int
    num_bytes: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown record kind: {self.kind!r}")
        if self.num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")


class CommLog:
    """Accumulates :class:`CommRecord` entries for one emulated run."""

    def __init__(self, layout: RankLayout):
        self.layout = layout
        self.records: List[CommRecord] = []
        # Running total so per-step metrics don't rescan the whole history
        # (the log grows without bound over a training run).
        self._cross_machine_total = 0.0

    def record(self, kind: str, src_rank: int, dst_rank: int, num_bytes: float) -> None:
        self.layout._check(src_rank)
        self.layout._check(dst_rank)
        self.records.append(CommRecord(kind, src_rank, dst_rank, num_bytes))
        if not self.layout.same_machine(src_rank, dst_rank):
            self._cross_machine_total += num_bytes

    # -- aggregation -----------------------------------------------------------

    def cross_machine_bytes(self, kinds: Optional[List[str]] = None) -> float:
        if kinds is None:
            return self._cross_machine_total
        return sum(
            record.num_bytes
            for record in self.records
            if record.kind in kinds
            and not self.layout.same_machine(record.src_rank, record.dst_rank)
        )

    def rank_matrix(self, kinds: Optional[List[str]] = None) -> np.ndarray:
        """(world, world) matrix of bytes sent rank->rank."""
        world = self.layout.world_size
        matrix = np.zeros((world, world))
        for record in self.records:
            if kinds is None or record.kind in kinds:
                matrix[record.src_rank, record.dst_rank] += record.num_bytes
        return matrix
