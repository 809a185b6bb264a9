"""Logical worker layout and expert placement for the functional runtime."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..domains import POSITIVE_INT, check_fields, domain

__all__ = ["RankLayout", "ExpertPlacement"]


@dataclass(frozen=True)
class RankLayout:
    """Maps global worker ranks onto machines (n machines x m workers)."""

    num_machines: int = domain(POSITIVE_INT)
    workers_per_machine: int = domain(POSITIVE_INT)

    def __post_init__(self):
        check_fields(self)

    @property
    def world_size(self) -> int:
        return self.num_machines * self.workers_per_machine

    def machine_of(self, rank: int) -> int:
        self._check(rank)
        return rank // self.workers_per_machine

    def local_rank_of(self, rank: int) -> int:
        self._check(rank)
        return rank % self.workers_per_machine

    def ranks_of_machine(self, machine: int) -> List[int]:
        if not 0 <= machine < self.num_machines:
            raise ValueError(f"machine {machine} out of range")
        start = machine * self.workers_per_machine
        return list(range(start, start + self.workers_per_machine))

    def same_machine(self, rank_a: int, rank_b: int) -> bool:
        return self.machine_of(rank_a) == self.machine_of(rank_b)

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")


@dataclass(frozen=True)
class ExpertPlacement:
    """Contiguous round-robin placement of experts on workers.

    Worker ``r`` owns experts ``[r*E, (r+1)*E)`` where
    ``E = num_experts / world_size`` — the layout assumed by the paper's
    Algorithm 1 (``rank(i)`` is the worker hosting expert ``i``).
    """

    num_experts: int = domain(POSITIVE_INT)
    world_size: int = domain(POSITIVE_INT)

    def __post_init__(self):
        check_fields(self)
        if self.num_experts % self.world_size != 0:
            raise ValueError(
                f"{self.num_experts} experts cannot be evenly placed on "
                f"{self.world_size} workers"
            )

    @property
    def experts_per_worker(self) -> int:
        return self.num_experts // self.world_size

    def owner(self, expert: int) -> int:
        self._check(expert)
        return expert // self.experts_per_worker

    def experts_of(self, rank: int) -> Tuple[int, ...]:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range")
        start = rank * self.experts_per_worker
        return tuple(range(start, start + self.experts_per_worker))

    def _check(self, expert: int) -> None:
        if not 0 <= expert < self.num_experts:
            raise ValueError(
                f"expert {expert} out of range [0, {self.num_experts})"
            )
