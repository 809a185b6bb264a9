"""Binds a static :class:`~repro.cluster.Cluster` to live simulation state.

A :class:`Fabric` owns:

* one :class:`~repro.netsim.fluid.FluidNetwork` with a bandwidth server per
  directed link of the cluster, and
* one serial compute stream per GPU (kernels on a stream execute in order;
  DMA/copy engines are separate, which is what allows computation and
  communication to overlap — the fact Janus's fine-grained scheduling
  exploits).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

from ..cluster import Cluster, Device, LinkId
from ..simkit import Environment, Resource
from .fluid import Flow, FluidNetwork

__all__ = ["Fabric"]


class Fabric:
    """Live simulation resources for one cluster."""

    def __init__(self, env: Environment, cluster: Cluster):
        self.env = env
        self.cluster = cluster
        self.network = FluidNetwork(env)
        self._latency: Dict[LinkId, float] = {}
        for link_id, bandwidth, latency in cluster.iter_links():
            self.network.add_link(link_id, bandwidth)
            self._latency[link_id] = latency
        self.compute_streams: Dict[Device, Resource] = {
            gpu: Resource(env, capacity=1) for gpu in cluster.gpus()
        }
        # Set by FaultInjector.install(); None on the (default) happy path.
        self.fault_injector = None
        # Routes are a pure function of the immutable topology, and link
        # indices are assigned in ``cluster.iter_links()`` order — i.e.
        # identically in every Fabric built from the same cluster.  The
        # memo of (src, dst, nic_index) -> (path tuple, summed latency,
        # packed link-index tuple) therefore lives on the *cluster*, so
        # fresh fabrics (one per simulated iteration) skip the LinkId
        # construction, the latency sum and the fluid path interning for
        # every route the fleet has already used: at 128 machines that
        # is ~70k routes per iteration.
        memo = getattr(cluster, "_fabric_route_memo", None)
        if memo is None:
            memo = [{}, {}, None]
            cluster._fabric_route_memo = memo
        self._route_memo = memo
        self._route_cache: Dict[tuple, tuple] = memo[0]
        # (src machine, dst machine, nic) -> same triple, for collectives
        # that stripe machine-pair traffic over the NICs directly.
        self._nic_route_cache: Dict[tuple, tuple] = memo[1]
        # memo[2]: the All-to-All route tables (a2a_routes), built at the
        # first All-to-All on the cluster.

    # -- communication -------------------------------------------------------

    def path_latency(self, path: Iterable[LinkId]) -> float:
        return sum(self._latency[link_id] for link_id in path)

    def nic_route(self, src_machine: int, dst_machine: int, nic: int):
        """Cached ``(path, latency, path_index)`` for one NIC-to-NIC hop.

        The hot loops of the collectives issue one flow per (machine
        pair, NIC); resolving the pair of :class:`LinkId` objects, the
        latency sum and the fluid-network path interning once per route
        keeps that staging O(1) dictionary-free per flow.
        """
        key = (src_machine, dst_machine, nic)
        cached = self._nic_route_cache.get(key)
        if cached is None:
            path, path_index = self.network.resolve_path((
                LinkId("nic", src_machine, nic, "out"),
                LinkId("nic", dst_machine, nic, "in"),
            ))
            cached = (path, self.path_latency(path), path_index)
            self._nic_route_cache[key] = cached
        return cached

    def a2a_routes(self):
        """``(intra, inter)`` route tables of the staged All-to-All.

        ``intra[machine][src_local][dst_local]`` is the NVLink route of a
        GPU pair, as :meth:`transfer` resolves it, and
        ``inter[src_machine][dst_machine]`` lists the :meth:`nic_route`
        of every NIC; both hold ``None`` on their diagonal.  The tables
        live in the cluster's route memo, so they are built once per
        cluster, at its first All-to-All: fabrics that never run one pay
        nothing for them.
        """
        tables = self._route_memo[2]
        if tables is None:
            cluster = self.cluster
            gpus = range(cluster.gpus_per_machine)
            machines = range(cluster.num_machines)
            nics = range(cluster.spec.num_nics)
            gpu = Device.gpu
            intra = [
                [[None if s == d else self._route(gpu(m, s), gpu(m, d)) for d in gpus]
                 for s in gpus]
                for m in machines
            ]
            inter = [
                [None if s == d else [self.nic_route(s, d, nic) for nic in nics]
                 for d in machines]
                for s in machines
            ]
            tables = self._route_memo[2] = (intra, inter)
        return tables

    def _route(self, src: Device, dst: Device, nic_index: Optional[int] = None):
        """Cached ``(path, latency, path_index)`` from ``src`` to ``dst``."""
        key = (src, dst, nic_index)
        cached = self._route_cache.get(key)
        if cached is None:
            path, path_index = self.network.resolve_path(
                self.cluster.route(src, dst, nic_index=nic_index)
            )
            cached = (path, self.path_latency(path), path_index)
            self._route_cache[key] = cached
        return cached

    def transfer(
        self,
        src: Device,
        dst: Device,
        size: float,
        nic_index: Optional[int] = None,
        tag=None,
    ) -> Flow:
        """Start a point-to-point transfer; wait on ``.done``."""
        if self.fault_injector is not None:
            dropped = self.fault_injector.intercept(src, dst, size, tag)
            if dropped is not None:
                return dropped
        cached = self._route_cache.get((src, dst, nic_index))
        if cached is None:
            cached = self._route(src, dst, nic_index)
        path, latency, path_index = cached
        return self.network.transfer(
            path, size, latency=latency, tag=tag, path_index=path_index
        )

    # -- computation ----------------------------------------------------------

    def compute(self, gpu: Device, seconds: float):
        """Occupy ``gpu``'s compute stream for ``seconds`` (a process)."""
        if gpu.kind != "gpu":
            raise ValueError(f"compute target must be a GPU, got {gpu}")
        if not 0.0 <= seconds < math.inf:
            raise ValueError(
                f"compute time must be finite and non-negative, got {seconds}"
            )
        stream = self.compute_streams[gpu]
        with stream.request() as slot:
            yield slot
            if self.fault_injector is not None:
                seconds = self.fault_injector.compute_duration(
                    gpu.machine, seconds, self.env.now
                )
            yield self.env.timeout(seconds)

    # -- accounting -----------------------------------------------------------

    def nic_bytes(self, machine: int, direction: str = "out") -> float:
        """Total bytes through all of a machine's NICs in one direction."""
        total = 0.0
        for nic in range(self.cluster.spec.num_nics):
            link_id = LinkId("nic", machine, nic, direction)
            total += self.network.link_bytes[link_id]
        return total
