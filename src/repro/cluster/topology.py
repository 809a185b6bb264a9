"""Cluster topology: devices, links and routing.

A :class:`Cluster` is a static description of ``n`` identical machines built
from a :class:`~repro.cluster.hardware.MachineSpec`.  It enumerates every
directed link in the fabric and computes the link path between any two
endpoints.  The simulation layer (:mod:`repro.netsim`) instantiates one
bandwidth server per :class:`LinkId` returned here.

Modelled links per machine (all full duplex, one ``LinkId`` per direction):

* ``nvlink``  — per-GPU NVSwitch port.  The switch itself is non-blocking, so
  the per-port ingress/egress capacity is the only contention point (this is
  what makes the paper's Fig. 7 egress hotspot appear).
* ``pcie_gpu`` — GPU ↔ its PCIe switch.
* ``pcie_up``  — PCIe switch ↔ CPU/host memory, shared by the GPUs under the
  switch (the bottleneck targeted by the paper's Fig. 8/9 peer scheduling).
* ``nic``     — GDR NIC, shared by the GPUs of one pair; carries RDMA traffic
  between machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .hardware import MachineSpec, a100_machine_spec

__all__ = ["Device", "LinkId", "Cluster"]

_DEVICE_KINDS = ("gpu", "host")
_LINK_KINDS = ("nvlink", "pcie_gpu", "pcie_up", "nic")
_DIRECTIONS = ("out", "in")


@dataclass(frozen=True, order=True)
class Device:
    """An endpoint of a transfer: a GPU or a machine's host (CPU) memory."""

    kind: str
    machine: int
    index: int = 0

    def __post_init__(self):
        if self.kind not in _DEVICE_KINDS:
            raise ValueError(f"unknown device kind: {self.kind!r}")

    @staticmethod
    def gpu(machine: int, local_rank: int) -> "Device":
        return Device("gpu", machine, local_rank)

    @staticmethod
    def host(machine: int) -> "Device":
        return Device("host", machine, 0)

    def __str__(self) -> str:
        if self.kind == "host":
            return f"host[{self.machine}]"
        return f"gpu[{self.machine}.{self.index}]"


@dataclass(frozen=True, order=True)
class LinkId:
    """One direction of one physical link.

    ``direction`` is relative to the device the link belongs to: ``out`` is
    traffic leaving the GPU / switch / NIC, ``in`` is traffic entering it.
    """

    kind: str
    machine: int
    index: int
    direction: str

    def __post_init__(self):
        if self.kind not in _LINK_KINDS:
            raise ValueError(f"unknown link kind: {self.kind!r}")
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"unknown link direction: {self.direction!r}")

    def __str__(self) -> str:
        return f"{self.kind}[{self.machine}.{self.index}].{self.direction}"


class Cluster:
    """``num_machines`` identical machines described by ``spec``."""

    def __init__(self, num_machines: int, spec: MachineSpec = None):
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        self.num_machines = num_machines
        self.spec = spec if spec is not None else a100_machine_spec()

    # -- sizes and ranks ----------------------------------------------------

    @property
    def gpus_per_machine(self) -> int:
        return self.spec.num_gpus

    @property
    def world_size(self) -> int:
        return self.num_machines * self.gpus_per_machine

    def machine_of(self, global_rank: int) -> int:
        self._check_global(global_rank)
        return global_rank // self.gpus_per_machine

    def local_rank_of(self, global_rank: int) -> int:
        self._check_global(global_rank)
        return global_rank % self.gpus_per_machine

    def gpu_device(self, global_rank: int) -> Device:
        return Device.gpu(
            self.machine_of(global_rank), self.local_rank_of(global_rank)
        )

    def gpus(self) -> Iterator[Device]:
        for machine in range(self.num_machines):
            for local_rank in range(self.gpus_per_machine):
                yield Device.gpu(machine, local_rank)

    # -- link enumeration ---------------------------------------------------

    def iter_links(self) -> Iterator[Tuple[LinkId, float, float]]:
        """Yield ``(link_id, bandwidth_bytes_per_s, latency_s)`` for every
        directed link in the cluster."""
        spec = self.spec
        for machine in range(self.num_machines):
            for gpu in range(spec.num_gpus):
                for direction in _DIRECTIONS:
                    yield (
                        LinkId("nvlink", machine, gpu, direction),
                        spec.nvlink.bandwidth,
                        spec.nvlink.latency,
                    )
                    yield (
                        LinkId("pcie_gpu", machine, gpu, direction),
                        spec.pcie.bandwidth,
                        spec.pcie.latency,
                    )
            for switch in range(spec.num_pcie_switches):
                for direction in _DIRECTIONS:
                    yield (
                        LinkId("pcie_up", machine, switch, direction),
                        spec.pcie.bandwidth,
                        spec.pcie.latency,
                    )
            for nic in range(spec.num_nics):
                for direction in _DIRECTIONS:
                    yield (
                        LinkId("nic", machine, nic, direction),
                        spec.nic.bandwidth,
                        spec.nic.latency,
                    )

    # -- routing ------------------------------------------------------------

    def route(self, src: Device, dst: Device, nic_index: int = None) -> List[LinkId]:
        """Directed link path from ``src`` to ``dst``.

        An empty path means a device-local copy.  For cross-machine routes,
        ``nic_index`` overrides the NIC on *both* ends (used by the
        inter-node scheduler to spread pulls over a machine's NICs); by
        default GPU endpoints use the NIC of their GPU pair and host
        endpoints use NIC 0.
        """
        if src == dst:
            return []
        if src.machine == dst.machine:
            return self._route_intra(src, dst)
        return self._route_inter(src, dst, nic_index)

    def _route_intra(self, src: Device, dst: Device) -> List[LinkId]:
        machine = src.machine
        spec = self.spec
        if src.kind == "gpu" and dst.kind == "gpu":
            return [
                LinkId("nvlink", machine, src.index, "out"),
                LinkId("nvlink", machine, dst.index, "in"),
            ]
        if src.kind == "gpu" and dst.kind == "host":
            switch = spec.pcie_switch_of(src.index)
            return [
                LinkId("pcie_gpu", machine, src.index, "out"),
                LinkId("pcie_up", machine, switch, "out"),
            ]
        if src.kind == "host" and dst.kind == "gpu":
            switch = spec.pcie_switch_of(dst.index)
            return [
                LinkId("pcie_up", machine, switch, "in"),
                LinkId("pcie_gpu", machine, dst.index, "in"),
            ]
        raise ValueError(f"no intra-machine route from {src} to {dst}")

    def _route_inter(
        self, src: Device, dst: Device, nic_index: int = None
    ) -> List[LinkId]:
        src_nic = nic_index if nic_index is not None else self._default_nic(src)
        dst_nic = nic_index if nic_index is not None else self._default_nic(dst)
        self._check_nic(src_nic)
        self._check_nic(dst_nic)
        return [
            LinkId("nic", src.machine, src_nic, "out"),
            LinkId("nic", dst.machine, dst_nic, "in"),
        ]

    def _default_nic(self, device: Device) -> int:
        if device.kind == "gpu":
            return self.spec.nic_of(device.index)
        return 0

    # -- validation ---------------------------------------------------------

    def _check_global(self, global_rank: int) -> None:
        if not 0 <= global_rank < self.world_size:
            raise ValueError(
                f"global rank {global_rank} out of range [0, {self.world_size})"
            )

    def _check_nic(self, nic: int) -> None:
        if not 0 <= nic < self.spec.num_nics:
            raise ValueError(
                f"nic {nic} out of range [0, {self.spec.num_nics})"
            )

    def __repr__(self) -> str:
        return (
            f"Cluster(machines={self.num_machines}, "
            f"gpus_per_machine={self.gpus_per_machine})"
        )
