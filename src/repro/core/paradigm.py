"""Paradigm selection: the communication-volume analysis of §5.1.3.

Implements the paper's closed forms for per-machine cross-node traffic of an
MoE block's forward phase:

* data-centric:    ``Comm_DC = 8 H^2 * E * m * (n-1)`` elements
  (each machine broadcasts its ``E*m`` experts of ``8H^2`` parameters to the
  other ``n-1`` machines),
* expert-centric:  ``Comm_EC = 2 m H T * (n-1)/n`` elements
  (two All-to-Alls over the ``T = B*S*k`` tokens per worker, balanced
  routing as the paper's lower-bound assumption),

and the gain ratio ``R = Comm_EC / Comm_DC = B*S*k / (4*n*H*E)`` (Eq. 1).
``R > 1`` selects the data-centric paradigm for a block; ``R <= 1`` keeps
the expert-centric All-to-All (§5.1.3 "Discussion" and §7.5).

:class:`CostModel` prices the same terms in seconds: the one place the
``auto`` selector, the controller and the chunk tuner price a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import ModelConfig
from ..domains import POSITIVE, POSITIVE_INT
from ..models.flops import expert_flops_per_token

__all__ = [
    "BlockCommProfile",
    "CostModel",
    "comm_data_centric",
    "comm_expert_centric",
    "gain_ratio",
    "select_paradigm",
    "profile_block",
    "profile_model",
]


def comm_data_centric(
    hidden_dim: int,
    experts_per_worker: int,
    workers_per_machine: int,
    num_machines: int,
    dtype_bytes: int = 4,
) -> float:
    """Per-machine cross-node bytes, forward phase, data-centric (§5.1.3)."""
    _check_cluster(num_machines, workers_per_machine)
    POSITIVE.check("experts_per_worker", experts_per_worker)
    elements = (
        8
        * hidden_dim**2
        * experts_per_worker
        * workers_per_machine
        * (num_machines - 1)
    )
    return float(elements) * dtype_bytes


def comm_expert_centric(
    hidden_dim: int,
    tokens_per_worker: int,
    workers_per_machine: int,
    num_machines: int,
    dtype_bytes: int = 4,
) -> float:
    """Per-machine cross-node bytes, forward phase, expert-centric (§5.1.3).

    Balanced-routing lower bound: two All-to-Alls, each shipping the
    ``(n-1)/n`` fraction of the machine's ``m*T`` tokens off-machine.
    """
    _check_cluster(num_machines, workers_per_machine)
    POSITIVE.check("tokens_per_worker", tokens_per_worker)
    elements = (
        2
        * workers_per_machine
        * hidden_dim
        * tokens_per_worker
        * (num_machines - 1)
        / num_machines
    )
    return float(elements) * dtype_bytes


def gain_ratio(
    batch_size: int,
    seq_len: int,
    top_k: int,
    num_machines: int,
    hidden_dim: int,
    experts_per_worker: int,
) -> float:
    """Eq. 1: ``R = B*S*k / (4*n*H*E)``."""
    if min(batch_size, seq_len, top_k, num_machines, hidden_dim,
           experts_per_worker) <= 0:
        raise ValueError("all gain-ratio inputs must be positive")
    return (batch_size * seq_len * top_k) / (
        4.0 * num_machines * hidden_dim * experts_per_worker
    )


def select_paradigm(ratio: float, threshold: float = 1.0) -> str:
    """The paper's rule: ``"data-centric"`` iff R > threshold, else
    ``"expert-centric"``.

    The default threshold is 1 (Eq. 1's break-even).  §7.5 raises it
    conservatively when deployment measurements show the data-centric
    implementation cannot reach the analytic bound (e.g. the PCIe link
    between switch and CPU capping cache-fill bandwidth), which is how the
    paper decides to run PR-MoE's deep E=4 blocks expert-centric.
    """
    if not 0 < threshold < math.inf:
        raise ValueError("threshold must be positive and finite")
    return "data-centric" if ratio > threshold else "expert-centric"


@dataclass(frozen=True)
class BlockCommProfile:
    """Communication analysis of one MoE block on a given cluster."""

    block_index: int
    num_experts: int
    experts_per_worker: int
    ratio: float
    paradigm: str
    expert_centric_bytes: float
    data_centric_bytes: float


def profile_block(
    config: ModelConfig,
    block_index: int,
    num_machines: int,
    workers_per_machine: int,
) -> BlockCommProfile:
    """Analyze one MoE block: traffic under both paradigms, R, and choice."""
    world_size = num_machines * workers_per_machine
    experts_per_worker = config.experts_per_worker(block_index, world_size)
    ratio = gain_ratio(
        config.batch_size,
        config.seq_len,
        config.top_k,
        num_machines,
        config.hidden_dim,
        experts_per_worker,
    )
    return BlockCommProfile(
        block_index=block_index,
        num_experts=config.num_experts(block_index),
        experts_per_worker=experts_per_worker,
        ratio=ratio,
        paradigm=select_paradigm(ratio),
        expert_centric_bytes=comm_expert_centric(
            config.hidden_dim,
            config.tokens_per_worker,
            workers_per_machine,
            num_machines,
            config.dtype_bytes,
        ),
        data_centric_bytes=comm_data_centric(
            config.hidden_dim,
            experts_per_worker,
            workers_per_machine,
            num_machines,
            config.dtype_bytes,
        ),
    )


def profile_model(
    config: ModelConfig, num_machines: int, workers_per_machine: int
):
    """Profiles for every MoE block of the model, in block order."""
    return [
        profile_block(config, index, num_machines, workers_per_machine)
        for index in config.moe_block_indices
    ]


def _check_cluster(num_machines: int, workers_per_machine: int) -> None:
    if num_machines < 2:
        raise ValueError("cross-node analysis needs at least 2 machines")
    POSITIVE_INT.check("workers_per_machine", workers_per_machine)


def _pow2_floor(limit: float) -> int:
    """Top of the chunk-count lattice: largest power of two ``<= limit``."""
    power = 1
    while power * 2 <= limit:
        power *= 2
    return power


@dataclass(frozen=True)
class CostModel:
    """Closed-form per-block seconds from the Eq. 1 ingredients.

    ``sig`` arguments are :class:`~repro.control.BlockLoadSignals`: the
    routing the iteration actually runs, not balanced routing.  The
    expert-centric estimate pays the All-to-All bottleneck and the hottest
    rank's compute (a synchronous collective is paced by its slowest
    participant); the data-centric estimate pays the largest per-machine
    fetch set, which skew does not inflate.  Only the *ordering* under a
    hysteresis margin is consumed (FSMoE-style measured cost modelling).
    """

    token_bytes: float
    expert_bytes: float
    expert_flops: float
    gpu_flops: float
    nic_bandwidth: float          # aggregate bytes/s per machine
    kernel_overhead: float
    micro_batches: int
    ec_pipeline_chunks: int
    nic_latency: float = 0.0      # per-transfer NIC latency (seconds)

    _BACKWARD_TOTAL = 3.0         # fwd + 2x bwd sweeps

    @classmethod
    def for_cluster(cls, config: ModelConfig, cluster, features) -> "CostModel":
        """Model terms from ``config``, NIC and GPU terms from
        ``cluster.spec``, chunk counts from ``features`` (JanusFeatures)."""
        spec = cluster.spec
        return cls(
            token_bytes=config.token_bytes,
            expert_bytes=config.expert_bytes,
            expert_flops=expert_flops_per_token(
                config.hidden_dim, config.ffn_mult
            ),
            gpu_flops=spec.gpu.effective_flops(config.hidden_dim),
            nic_bandwidth=spec.num_nics * spec.nic.bandwidth,
            kernel_overhead=spec.gpu.kernel_overhead,
            micro_batches=features.micro_batches,
            ec_pipeline_chunks=features.ec_pipeline_chunks,
            nic_latency=spec.nic.latency,
        )

    def micro_batching_pays(
        self, a2a_bytes: float, tokens: int, experts_per_worker: int
    ) -> bool:
        """The ``auto`` selector's test for a low-R block: over one
        balanced forward phase (``a2a_bytes`` from :func:`comm_expert_centric`
        against ``tokens`` of expert compute), M micro-batches win
        ``min(comm, compute) * (1 - 1/M)`` and cost M-1 launch sweeps.
        Deliberately not :meth:`chunk_time`, which prices measured fwd+bwd
        load and would move the Table 1 maps."""
        micro = self.micro_batches
        comm_s = a2a_bytes / self.nic_bandwidth
        compute_s = (
            tokens * self.expert_flops / self.gpu_flops
            + self.kernel_overhead * experts_per_worker
        )
        overlap_win = min(comm_s, compute_s) * (1.0 - 1.0 / micro)
        pipeline_cost = (micro - 1) * self.kernel_overhead * experts_per_worker
        return overlap_win > pipeline_cost

    def _a2a_seconds(self, sig) -> float:
        """4 All-to-Alls per iteration (dispatch+combine, fwd and bwd) over
        the measured cross-machine bottleneck."""
        return (
            4.0 * sig.a2a_bottleneck_tokens * self.token_bytes
            / self.nic_bandwidth
        )

    def _hot_compute_seconds(self, sig) -> float:
        return self._BACKWARD_TOTAL * sig.max_rank_recv * self.expert_flops \
            / self.gpu_flops

    def chunk_time(self, sig, chunks: int) -> float:
        """Estimated fwd+bwd seconds for the block under a K-chunked,
        compute-overlapped All-to-All schedule (pipelined-ec or
        microbatch-ec with K micro-batches): the longer of comm and hot
        compute hides all but one chunk of the shorter, and every extra
        chunk re-pays the per-expert kernel launch."""
        sweeps = self._BACKWARD_TOTAL
        a2a = self._a2a_seconds(sig)
        hot_compute = self._hot_compute_seconds(sig)
        launch = sweeps * self.kernel_overhead * sig.experts_per_worker
        overlapped = (
            max(a2a, hot_compute)
            + min(a2a, hot_compute) / chunks
        )
        extra_launch = (chunks - 1) * self.kernel_overhead \
            * sig.experts_per_worker * sweeps
        return overlapped + launch + extra_launch

    def a2a_chunk_seconds(self, sig, chunks: int) -> float:
        """Predicted duration of one dispatch/combine All-to-All chunk
        (uncontended): the per-phase bottleneck bytes split K ways, plus
        the send/ack NIC latency every chunked transfer pays regardless
        of its size."""
        return (
            sig.a2a_bottleneck_tokens * self.token_bytes
            / self.nic_bandwidth / chunks
            + 2.0 * self.nic_latency
        )

    def tune_chunks(self, sig, max_chunks: int = 64) -> int:
        """Analytic per-block chunk-count optimum over the measured load.

        ``chunk_time`` is convex in K: ``min(a2a, hot)/K`` falls while
        ``(K-1)·o`` rises (o = per-sweep kernel relaunch cost), so the
        unconstrained optimum is ``K* = sqrt(min(a2a, hot) / o)``.  The
        result is clamped to the divisibility/capacity lattice: powers of
        two (binary-exact splits of the routing matrix, so chunked traffic
        totals stay bit-identical to the unchunked sum), at most
        ``max_chunks``, and at most one token per chunk on the hottest
        rank.  Convexity means only the two lattice neighbours of K* can
        win; ties break toward fewer chunks.
        """
        sweeps = self._BACKWARD_TOTAL
        overhead = sweeps * self.kernel_overhead * sig.experts_per_worker
        cap = _pow2_floor(min(max_chunks, max(1, sig.max_rank_recv)))
        shorter = min(self._a2a_seconds(sig), self._hot_compute_seconds(sig))
        if shorter <= 0.0:
            return 1
        if overhead <= 0.0:
            return cap
        below = _pow2_floor(math.sqrt(shorter / overhead))
        candidates = {min(below, cap), min(below * 2, cap)}
        return min(candidates, key=lambda k: (self.chunk_time(sig, k), k))

    def tune_micro_batches(self, sigs, max_chunks: int = 64) -> int:
        """One M for all of ``sigs``' blocks (micro lanes are per-rank):
        the lattice point within every block's capacity minimizing the
        summed :meth:`chunk_time`; ties break toward fewer."""
        cap = _pow2_floor(
            min(max_chunks, max(1, min(sig.max_rank_recv for sig in sigs)))
        )
        return min(
            (1 << power for power in range(cap.bit_length())),
            key=lambda k: (sum(self.chunk_time(sig, k) for sig in sigs), k),
        )

    def estimate(self, sig, strategy: str) -> float:
        """Estimated fwd+bwd seconds for ``sig``'s block under ``strategy``."""
        sweeps = self._BACKWARD_TOTAL
        a2a = self._a2a_seconds(sig)
        hot_compute = self._hot_compute_seconds(sig)
        launch = sweeps * self.kernel_overhead * sig.experts_per_worker
        if strategy == "expert-centric":
            return a2a + hot_compute + launch
        if strategy in ("pipelined-ec", "microbatch-ec"):
            chunks = (
                self.ec_pipeline_chunks if strategy == "pipelined-ec"
                else self.micro_batches
            )
            return self.chunk_time(sig, chunks)
        if strategy == "data-centric":
            # Fetch the largest external expert set (fwd) and push the
            # gradients home (bwd); prefetch overlaps roughly half of it
            # behind dense compute (§5.3).
            pull = (
                2.0 * sig.max_external_count * self.expert_bytes
                / self.nic_bandwidth
            )
            # DC computes where the tokens already are: every rank works on
            # its own routed batch, so compute is the *mean*, not the max.
            world = max(1, sig.num_experts // sig.experts_per_worker)
            mean_rank_tokens = sig.tokens_total / world
            compute = sweeps * mean_rank_tokens * self.expert_flops \
                / self.gpu_flops
            launch_dc = sweeps * self.kernel_overhead \
                * sig.active_experts_per_rank
            return 0.5 * pull + compute + launch_dc
        raise ValueError(f"cost model knows no strategy {strategy!r}")
