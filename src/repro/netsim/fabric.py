"""Binds a static :class:`~repro.cluster.Cluster` to live simulation state.

A :class:`Fabric` owns:

* one :class:`~repro.netsim.fluid.FluidNetwork` with a bandwidth server per
  directed link of the cluster, and
* one serial compute stream per GPU (kernels on a stream execute in order;
  DMA/copy engines are separate, which is what allows computation and
  communication to overlap — the fact Janus's fine-grained scheduling
  exploits).  A kernel is one compiled hold of its stream
  (:meth:`Fabric.compute`): no generator frame per kernel.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterable, Optional

import numpy as np

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
        """The staged All-to-All's route table, one row per flow it may
        stage: ``(paths, path_indices, latencies, tags)``.

        The first rows are the GPU pairs inside each machine, in
        ``(machine, src_local, dst_local)`` order, over the NVLink route
        :meth:`transfer` resolves; the rest are each machine pair's NICs,
        in ``(src_machine, dst_machine, nic)`` order, over their
        :meth:`nic_route`.  Each row's tag is built here too, so a staged
        flow builds none.  ``latencies`` is a float64 array, the other
        columns object arrays, so a selection of rows is one fancy index.
        The table lives in the cluster's route memo: it is built once per
        cluster, at its first All-to-All, and fabrics that never run one
        pay nothing for it.
        """
        tables = self._route_memo[2]
        if tables is None:
            cluster = self.cluster
            gpus = range(cluster.gpus_per_machine)
            machines = range(cluster.num_machines)
            nics = range(cluster.spec.num_nics)
            gpu = Device.gpu
            rows = [
                (self._route(gpu(m, s), gpu(m, d)), ("a2a-intra", m, s, d))
                for m in machines for s in gpus for d in gpus if s != d
            ]
            rows += [
                (self.nic_route(s, d, nic), ("a2a-inter", s, d, nic))
                for s in machines for d in machines if s != d for nic in nics
            ]
            routes = [route for route, _ in rows]
            tables = self._route_memo[2] = (
                _objects(path for path, _, _ in routes),
                _objects(path_index for _, _, path_index in routes),
                np.fromiter((latency for _, latency, _ in routes), float, len(rows)),
                _objects(tag for _, tag in rows),
            )
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
        """Occupy ``gpu``'s compute stream for ``seconds``: a hold, the
        process to wait on (see :meth:`~repro.simkit.Resource.hold`).

        The arguments are checked here, at the call: ``gpu`` must be a GPU
        of this cluster and ``seconds`` a finite, non-negative number (a
        bool is not one).  Under a fault plan the injector's
        ``compute_duration`` stretches the kernel at its grant.
        """
        stream = self.compute_streams.get(gpu)
        if stream is None or isinstance(seconds, bool) or not 0.0 <= seconds < math.inf:
            self._refuse_compute(gpu, seconds)
        injector = self.fault_injector
        if injector is None:
            return stream.hold(seconds, None, "compute")
        stretch = functools.partial(injector.compute_duration, gpu.machine)
        return stream.hold(seconds, stretch, "compute")

    def _refuse_compute(self, gpu: Device, seconds: float) -> None:
        """Raise the ``ValueError`` that :meth:`compute` refuses its
        arguments with."""
        if gpu.kind != "gpu":
            raise ValueError(f"compute target must be a GPU, got {gpu}")
        if gpu not in self.compute_streams:
            raise ValueError(
                f"compute target {gpu} is not a GPU of this "
                f"{self.cluster.num_machines}-machine cluster"
            )
        if isinstance(seconds, bool):
            raise ValueError(f"compute time must be a number, got a bool ({seconds})")
        raise ValueError(
            f"compute time must be finite and non-negative, got {seconds}"
        )

    # -- accounting -----------------------------------------------------------

    def nic_bytes(self, machine: int, direction: str = "out") -> float:
        """Total bytes through all of a machine's NICs in one direction."""
        total = 0.0
        for nic in range(self.cluster.spec.num_nics):
            link_id = LinkId("nic", machine, nic, direction)
            total += self.network.link_bytes[link_id]
        return total


def _objects(items) -> np.ndarray:
    """A 1-D object array of ``items`` (tuples stay elements)."""
    return np.fromiter(items, dtype=object)
