"""Data-centric (expert-pulling) execution of an MoE layer.

The paper's proposed dataflow (§3.2, Fig. 2b): tokens stay on their home
workers; expert weights are pulled to where the tokens are.  Pulls are
deduplicated per machine by the Cache Manager (hierarchical communication,
§5.1.2), and expert gradients are pre-reduced per machine before being
pushed back to the expert's home worker.

Functionally this module is the ground-truth emulation: each machine imports
a *copy* of every non-resident expert's weights (a replica module), computes
on it, and at the end of the backward pass ships the replica's accumulated
gradients home — exactly the physical data movement of Janus, so tests can
assert byte-for-byte traffic and value-for-value equivalence against the
expert-centric executor.

Replica modules are pooled across iterations: the first pull of a
(machine, expert) pair constructs the module, later iterations only
refresh its weight buffers in place (:meth:`~repro.models.Expert.
refresh_from`).  :meth:`DataCentricMoE.invalidate_replicas` drops the pool
when the canonical state changes out-of-band (checkpoint import, fault
recovery swapping expert shards).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..models import Expert, combine_sorted, gather_slots
from ..tensorlib import Tensor
from .executor import MoEExecutor

__all__ = ["DataCentricMoE"]


class DataCentricMoE(MoEExecutor):
    """Pull-based expert movement with per-machine caching."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # (machine, expert) -> pooled replica module, reused across
        # iterations so run() only refreshes weight buffers in place.
        self._replica_pool: Dict[Tuple[int, int], Expert] = {}

    def run(self, worker_tokens: List[Tensor]) -> List[Tensor]:
        decisions = self._route_all(worker_tokens)
        self._backward_done = False
        # (machine, expert) -> module used by that machine this iteration.
        self._machine_experts: Dict[Tuple[int, int], Expert] = {}
        # (machine, expert) replicas that must ship gradients home.
        self._replicas: Dict[Tuple[int, int], Expert] = {}
        # Worker that performed the machine's cache-fill pull: the machine's
        # representative for the pre-reduced grad_push home.
        self._fill_rank: Dict[Tuple[int, int], int] = {}
        # Last worker the machine cache served (cache hits are charged as a
        # peer-to-peer copy from the previous reader, once per worker).
        self._served_rank: Dict[Tuple[int, int], int] = {}

        outputs: List[Tensor] = []
        for rank, (tokens, decision) in enumerate(zip(worker_tokens, decisions)):
            plan = decision.dispatch_plan()
            if plan.total_routed == 0:
                outputs.append(tokens * 0.0)
                continue
            # One gather puts this worker's routed tokens in sorted-by-
            # expert order; each pulled expert computes on a contiguous
            # zero-copy segment and one weighted scatter-add combines.
            gathered = gather_slots(tokens, plan)
            pieces = []
            for expert_id in plan.experts_present():
                expert = self._fetch(expert_id, rank)
                start, stop = plan.segment_bounds(expert_id)
                pieces.append(expert(gathered.row_slice(start, stop)))
            stacked = (
                Tensor.concat(pieces, axis=0) if len(pieces) > 1 else pieces[0]
            )
            outputs.append(
                combine_sorted(tokens.shape[0], plan, decision, stacked)
            )
        return outputs

    def _fetch(self, expert_id: int, rank: int) -> Expert:
        """Return the expert module worker ``rank`` computes with,
        recording the pull traffic the fetch would generate."""
        owner = self.placement.owner(expert_id)
        if owner == rank:
            # Resident expert: no movement, compute on the canonical module.
            return self.experts[expert_id]

        machine = self.layout.machine_of(rank)
        key = (machine, expert_id)
        replica = self._machine_experts.get(key)
        if replica is None:
            # First pull on this machine: over NVLink when the owner GPU is
            # a same-machine peer, otherwise the Inter-Node Scheduler pulls
            # the expert once into the machine's Cache Manager (§5.1.2).
            # One record covers both — the CommLog's aggregations separate
            # the NVLink and RDMA classes by the (src, dst) machine pair.
            self.comm_log.record("expert_pull", owner, rank, self.expert_bytes)
            replica = self._acquire_replica(key, expert_id)
            self._machine_experts[key] = replica
            self._replicas[key] = replica
            self._fill_rank[key] = rank
            self._served_rank[key] = rank
        elif self._served_rank[key] != rank:
            # Cache hit by another worker of the same machine: the expert is
            # served from the machine cache (CPU memory via PCIe or a peer
            # GPU via NVLink) — intra-machine traffic only, charged once per
            # worker.  This must not disturb the fill rank, which stays the
            # machine's grad_push representative.
            peer = self._served_rank[key]
            self.comm_log.record("expert_pull", peer, rank, self.expert_bytes)
            self._served_rank[key] = rank
        return replica

    def _acquire_replica(self, key: Tuple[int, int], expert_id: int) -> Expert:
        """Pooled replica with this iteration's canonical weights."""
        replica = self._replica_pool.get(key)
        if replica is None:
            replica = Expert(self.hidden_dim, mult=self.ffn_mult)
            self._replica_pool[key] = replica
        replica.refresh_from(self.experts[expert_id])
        return replica

    def invalidate_replicas(self) -> None:
        """Drop pooled replica modules.

        Call when canonical expert state changes shape/dtype out-of-band
        (checkpoint import, degradation paths re-homing experts); normal
        optimizer steps need no invalidation because every run() refreshes
        replica weights from the canonical modules.
        """
        self._replica_pool.clear()

    def import_state(self, state) -> None:
        super().import_state(state)
        self.invalidate_replicas()

    def finish_backward(self) -> None:
        """Ship pre-reduced expert gradients back to their home workers.

        Each machine accumulated the gradients of all its workers in one
        replica per expert (the pre-reduction of §5.1.2), so exactly one
        gradient payload per (machine, pulled expert) travels home — sent
        by the worker that performed the cache-fill pull.
        """
        if getattr(self, "_backward_done", True):
            raise RuntimeError("finish_backward() must follow exactly one run()")
        self._backward_done = True
        for (machine, expert_id), replica in self._replicas.items():
            owner = self.placement.owner(expert_id)
            sender = self._fill_rank[(machine, expert_id)]
            self.comm_log.record(
                "grad_push", sender, owner, self.expert_bytes
            )
            self.experts[expert_id].apply_gradients(replica.collect_gradients())
