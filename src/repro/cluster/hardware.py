"""Hardware specifications for the simulated GPU cluster.

The defaults mirror the paper's testbed (§5.2, §7.1): machines with
8× NVIDIA A100 SXM 80 GB connected by NVLink/NVSwitch (600 GB/s per GPU),
PCIe 4.0 ×16 to the host (64 GB/s) with one PCIe switch per two GPUs, and
four 200 Gbps GDR NICs per machine, each NIC shared by one GPU pair.

Each numeric field declares its domain (:mod:`repro.domains`): a rate or
size is positive and finite, a time non-negative and finite, and a count
a positive integer, never a bool.  A value outside it raises ``ValueError``
naming the field and the spec, before ``MachineSpec``'s divisibility rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..domains import NON_NEGATIVE, POSITIVE, POSITIVE_INT, check_fields, domain
from ..units import GIB, US, gbps, gbytes_per_s

__all__ = ["LinkSpec", "GpuSpec", "MachineSpec", "a100_machine_spec"]


@dataclass(frozen=True)
class LinkSpec:
    """Static properties of one physical link class.

    Attributes:
        bandwidth: capacity in bytes/second (per direction; links are
            full duplex and each direction is modelled independently).
        latency: fixed per-transfer latency in seconds.
    """

    bandwidth: float = domain(POSITIVE)
    latency: float = domain(NON_NEGATIVE)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class GpuSpec:
    """Compute and memory properties of one GPU.

    ``flops`` is the sustained throughput used by the compute-time model;
    the default corresponds to an A100 running mixed-precision GEMMs at a
    conservative fraction of its 312 TFLOPS peak.
    """

    flops: float = domain(POSITIVE, 180e12)
    memory_bytes: float = domain(POSITIVE, 80 * GIB)
    # Fixed cost per kernel launch (CUDA launch + framework dispatch).
    # Charged once per expert GEMM group, it is what makes computing 32
    # small expert batches more expensive than one big batched GEMM — the
    # real-world tax on fine-grained data-centric execution.
    kernel_overhead: float = domain(NON_NEGATIVE, 48e-6)

    def __post_init__(self):
        check_fields(self)

    def effective_flops(self, hidden_dim: int) -> float:
        """Sustained throughput for GEMMs of a given hidden dimension.

        Small matrices cannot saturate an A100's tensor cores: kernels with
        H=256 reach a fraction of the peak that H>=1024 GEMMs do.  Modelled
        as a linear ramp clipped to [0.2, 0.85] of ``flops``.
        """
        if hidden_dim <= 0:
            raise ValueError("hidden_dim must be positive")
        efficiency = min(0.85, max(0.2, hidden_dim / 1024.0))
        return self.flops * efficiency


@dataclass(frozen=True)
class MachineSpec:
    """Topology and link classes of one machine.

    ``gpus_per_nic`` GPUs share each NIC and ``gpus_per_pcie_switch`` GPUs
    share each PCIe switch (both are 2 on the paper's A100 boxes).
    """

    num_gpus: int = domain(POSITIVE_INT, 8)
    gpus_per_pcie_switch: int = domain(POSITIVE_INT, 2)
    gpus_per_nic: int = domain(POSITIVE_INT, 2)
    gpu: GpuSpec = field(default_factory=GpuSpec)
    nvlink: LinkSpec = field(
        default_factory=lambda: LinkSpec(gbytes_per_s(600.0), 2 * US)
    )
    pcie: LinkSpec = field(
        default_factory=lambda: LinkSpec(gbytes_per_s(64.0), 3 * US)
    )
    nic: LinkSpec = field(default_factory=lambda: LinkSpec(gbps(200.0), 8 * US))
    # Kernel/userspace socket processing of one pull request (§6).
    socket_overhead: float = domain(NON_NEGATIVE, 15e-6)

    def __post_init__(self):
        check_fields(self)
        if self.num_gpus % self.gpus_per_pcie_switch != 0:
            raise ValueError(
                "num_gpus must be divisible by gpus_per_pcie_switch"
            )
        if self.num_gpus % self.gpus_per_nic != 0:
            raise ValueError("num_gpus must be divisible by gpus_per_nic")

    @property
    def num_pcie_switches(self) -> int:
        return self.num_gpus // self.gpus_per_pcie_switch

    @property
    def num_nics(self) -> int:
        return self.num_gpus // self.gpus_per_nic

    def pcie_switch_of(self, local_rank: int) -> int:
        """PCIe switch index serving the GPU with this local rank."""
        self._check_rank(local_rank)
        return local_rank // self.gpus_per_pcie_switch

    def nic_of(self, local_rank: int) -> int:
        """NIC index serving the GPU with this local rank."""
        self._check_rank(local_rank)
        return local_rank // self.gpus_per_nic

    def _check_rank(self, local_rank: int) -> None:
        if not 0 <= local_rank < self.num_gpus:
            raise ValueError(
                f"local_rank {local_rank} out of range [0, {self.num_gpus})"
            )


def a100_machine_spec(num_gpus: int = 8) -> MachineSpec:
    """The paper's A100 machine with a configurable GPU count."""
    return MachineSpec(num_gpus=num_gpus)
