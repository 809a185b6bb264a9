"""All-to-All goodput stress test (paper §3.1, second observation).

The paper stress-tests All-to-All goodput in two settings: within a single
8-GPU machine (NVLink only) and across four 8-GPU machines (NIC-bound), and
reports 1846.58 Gbps vs 101.9 Gbps — an ~18x gap showing the intra-machine
links sit mostly idle during inter-machine All-to-All.  This module
reproduces that experiment on the simulated fabric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cluster import Cluster, MachineSpec, a100_machine_spec
from ..simkit import Environment
from ..units import to_gbps
from .collectives import all_to_all, check_count, uniform_matrix
from .fabric import Fabric

__all__ = ["GoodputResult", "measure_all_to_all_goodput"]


@dataclass(frozen=True)
class GoodputResult:
    """Outcome of one goodput stress test."""

    num_machines: int
    gpus_per_machine: int
    payload_bytes_per_pair: float
    elapsed_seconds: float
    total_bytes: float

    @property
    def goodput_bytes_per_s(self) -> float:
        """Aggregate goodput: useful payload moved per wall second,
        normalized per participating GPU (matching how NCCL-style busbw is
        reported per rank)."""
        world = self.num_machines * self.gpus_per_machine
        return self.total_bytes / self.elapsed_seconds / world

    @property
    def goodput_gbps(self) -> float:
        return to_gbps(self.goodput_bytes_per_s)


def measure_all_to_all_goodput(
    num_machines: int,
    payload_bytes_per_pair: float = 32e6,
    rounds: int = 4,
    spec: MachineSpec = None,
) -> GoodputResult:
    """Run ``rounds`` uniform All-to-Alls and measure per-GPU goodput."""
    check_count("rounds", rounds)
    if not 0 < payload_bytes_per_pair < math.inf:
        raise ValueError(
            f"payload_bytes_per_pair must be positive and finite, got "
            f"{payload_bytes_per_pair}"
        )
    cluster = Cluster(num_machines, spec or a100_machine_spec())
    env = Environment()
    fabric = Fabric(env, cluster)
    matrix = uniform_matrix(cluster.world_size, payload_bytes_per_pair)

    def driver():
        for _ in range(rounds):
            yield all_to_all(fabric, matrix)

    start = env.now
    env.run(until=env.process(driver()))
    elapsed = env.now - start
    total = matrix.sum() * rounds
    return GoodputResult(
        num_machines=num_machines,
        gpus_per_machine=cluster.gpus_per_machine,
        payload_bytes_per_pair=payload_bytes_per_pair,
        elapsed_seconds=elapsed,
        total_bytes=total,
    )
