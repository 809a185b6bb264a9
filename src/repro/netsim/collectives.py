"""Collective communication on the simulated fabric.

The only collective MoE expert parallelism needs is All-to-All (token
dispatch and combine).  It is *synchronous*: the operation completes when the
busiest participant has sent and received everything (§3.1 of the paper) —
modelled here by waiting on every constituent flow.

Flows are decomposed hierarchically to keep the fluid solver fast while
preserving where contention happens:

* intra-machine traffic: one flow per (src GPU, dst GPU) pair over NVLink;
* inter-machine traffic: per (src machine, dst machine) pair, the GPU-pair
  bytes are aggregated and split across the machine's NICs (NCCL/Tutel
  similarly aggregate cross-node All-to-All traffic per NIC channel).
"""

from __future__ import annotations

import math
import operator
from typing import List, Sequence

import numpy as np

from ..cluster import Device
from ..domains import POSITIVE_INT
from ..simkit import AllOf, Event
from .fabric import Fabric

__all__ = ["all_reduce", "all_to_all", "uniform_matrix"]

_DONE = operator.attrgetter("done")


def uniform_matrix(world_size: int, bytes_per_pair: float) -> np.ndarray:
    """Send matrix where every rank sends the same amount to every other."""
    POSITIVE_INT.check("world_size", world_size)
    matrix = np.full((world_size, world_size), float(bytes_per_pair))
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _machine_pair_totals(matrix: np.ndarray, n: int, g: int) -> np.ndarray:
    """``(n, n)`` bytes each machine pair exchanges, in one numpy pass.

    Entry ``[i, j]`` is bit-identical to ``matrix[i*g:(i+1)*g,
    j*g:(j+1)*g].sum()``: numpy sums such a block in the order its
    elements lie in memory, row-major for a C-ordered matrix and
    column-major for a transposed one (the combine All-to-All's).  So
    each block is laid out contiguously in that order and summed along
    one axis, which rounds exactly as the per-block sum does.
    """
    if abs(matrix.strides[0]) < abs(matrix.strides[1]):
        return _machine_pair_totals(np.ascontiguousarray(matrix.T), n, g).T
    blocks = np.ascontiguousarray(matrix).reshape(n, g, n, g).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(blocks).reshape(n, n, g * g).sum(axis=2)


def all_to_all(
    fabric: Fabric,
    send_bytes: Sequence[Sequence[float]],
    hierarchical: bool = True,
) -> Event:
    """Start an All-to-All; returns an event triggered when it completes.

    ``send_bytes[i][j]`` is the payload GPU of global rank ``i`` sends to
    global rank ``j``.  The matrix must be ``world_size`` square.

    ``hierarchical=True`` (default) models the optimized cross-node path
    used by Tutel/NCCL channels: per machine pair, the GPU payloads are
    aggregated and striped evenly over the machine's NICs.
    ``hierarchical=False`` is the naive flat decomposition: every GPU pair
    is its own cross-node flow pinned to the *source GPU's* NIC, so NIC
    load follows the (generally uneven) per-GPU send pattern and small
    per-pair messages pay per-flow latency — the behaviour hierarchical
    All-to-All papers (Tutel, SE-MoE) optimize away.
    """
    cluster = fabric.cluster
    matrix = np.asarray(send_bytes, dtype=float)
    world = cluster.world_size
    if matrix.shape != (world, world):
        raise ValueError(
            f"send matrix must be {world}x{world}, got {matrix.shape}"
        )
    if not np.isfinite(matrix).all():
        raise ValueError("send matrix entries must be finite")
    if (matrix < 0).any():
        raise ValueError("send matrix entries must be non-negative")

    n = cluster.num_machines
    g = cluster.gpus_per_machine
    paths, path_indices, latencies, tags = fabric.a2a_routes()

    # Intra-machine flows: GPU pair granularity over NVLink, one per
    # off-diagonal entry of each machine's diagonal block, in route-table
    # order.  Staged straight on the fluid network: the fault injector's
    # intercept can neither drop nor draw for an ``a2a-*`` tag, which no
    # fault spec accepts (DESIGN §12, "Bulk All-to-All staging").
    machines = np.arange(n)
    sizes = matrix.reshape(n, g, n, g)[machines, :, machines, :][
        :, ~np.eye(g, dtype=bool)
    ].ravel()
    # A row is staged when its key is positive: a pair's own size, or a
    # machine pair's total for each of its NIC stripes.
    keys = sizes
    if hierarchical:
        # Inter-machine flows: aggregate per machine pair, stripe over NICs.
        num_nics = cluster.spec.num_nics
        totals = _machine_pair_totals(matrix, n, g)[~np.eye(n, dtype=bool)]
        sizes = np.concatenate([sizes, np.repeat(totals / num_nics, num_nics)])
        keys = np.concatenate([keys, np.repeat(totals, num_nics)])
    rows = np.flatnonzero(keys > 0)
    flows = fabric.network._stage(
        paths[rows].tolist(), path_indices[rows].tolist(),
        sizes[rows].tolist(), latencies[rows].tolist(), tags[rows].tolist(),
    )
    done_events: List[Event] = list(map(_DONE, flows))

    if not hierarchical:
        # Naive flat decomposition: one flow per cross-machine GPU pair,
        # each pinned to the NIC of its source GPU.
        for src_rank in range(world):
            src = cluster.gpu_device(src_rank)
            for dst_rank in range(world):
                dst = cluster.gpu_device(dst_rank)
                if src.machine == dst.machine:
                    continue
                size = matrix[src_rank, dst_rank]
                if size <= 0:
                    continue
                flow = fabric.transfer(
                    src, dst, size,
                    tag=("a2a-flat", src_rank, dst_rank),
                )
                done_events.append(flow.done)

    return AllOf(fabric.env, done_events)


def all_reduce(
    fabric: Fabric,
    bytes_per_rank: float,
    hierarchical: bool = True,
) -> Event:
    """Start a ring all-reduce of ``bytes_per_rank`` per participant.

    Models the dense-gradient all-reduce of data parallelism with the
    standard ring cost: each rank exchanges ``2*(N-1)/N`` of its payload
    with its ring neighbours (reduce-scatter + all-gather).

    ``hierarchical=True`` (default) is the NCCL-style two-level ring:
    a local NVLink ring inside every machine (``2*(g-1)/g`` of the payload
    per adjacent GPU pair) plus one inter-machine ring over the NICs
    (``2*(n-1)/n`` of the payload, striped evenly across the NICs the way
    the hierarchical All-to-All stripes).  ``hierarchical=False`` runs one
    flat ring over the global rank order, so cross-machine hops carry the
    full ``2*(W-1)/W`` payload on a single NIC each.
    """
    if bytes_per_rank < 0:
        raise ValueError("bytes_per_rank must be non-negative")
    if not math.isfinite(bytes_per_rank):
        raise ValueError(f"bytes_per_rank must be finite, got {bytes_per_rank}")
    cluster = fabric.cluster
    world = cluster.world_size
    done_events: List[Event] = []
    if bytes_per_rank == 0 or world <= 1:
        return AllOf(fabric.env, done_events)

    if hierarchical:
        g = cluster.gpus_per_machine
        if g > 1:
            local_bytes = 2.0 * (g - 1) / g * bytes_per_rank
            for machine in range(cluster.num_machines):
                for src_local in range(g):
                    flow = fabric.transfer(
                        Device.gpu(machine, src_local),
                        Device.gpu(machine, (src_local + 1) % g),
                        local_bytes,
                        tag=("ar-intra", machine, src_local),
                    )
                    done_events.append(flow.done)
        n = cluster.num_machines
        if n > 1:
            inter_bytes = 2.0 * (n - 1) / n * bytes_per_rank
            num_nics = cluster.spec.num_nics
            per_nic = inter_bytes / num_nics
            for machine in range(n):
                dst_machine = (machine + 1) % n
                for nic in range(num_nics):
                    path, latency, path_index = fabric.nic_route(
                        machine, dst_machine, nic
                    )
                    flow = fabric.network.transfer(
                        path,
                        per_nic,
                        latency=latency,
                        tag=("ar-inter", machine, dst_machine, nic),
                        path_index=path_index,
                    )
                    done_events.append(flow.done)
    else:
        ring_bytes = 2.0 * (world - 1) / world * bytes_per_rank
        for rank in range(world):
            flow = fabric.transfer(
                cluster.gpu_device(rank),
                cluster.gpu_device((rank + 1) % world),
                ring_bytes,
                tag=("ar-flat", rank),
            )
            done_events.append(flow.done)

    return AllOf(fabric.env, done_events)
