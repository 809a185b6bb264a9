"""Request-level serving on the simulated cluster.

Two topologies over the same :class:`~repro.netsim.Fabric`:

* **unified** — every machine is one serving worker that handles both
  phases of its requests.  Prefill is admitted ahead of decode between
  decode steps (continuous batching), so a burst of arrivals head-of-line
  blocks the decode batch — the latency artifact that motivates
  disaggregation.
* **disaggregated** — the first ``prefillers`` machines only prefill;
  the rest only decode.  Finished prefills ship their KV cache to the
  request's decoder as an explicit host-to-host flow, and the decode pool
  pins the hottest ``pin_fraction`` of experts locally so requests routed
  to them skip the wire entirely (the Janus-inference design: attention
  workers and expert workers scale and specialize independently).

Costs come from the same closed forms as the training engine
(:mod:`repro.models.flops`, :class:`~repro.cluster.GpuSpec`): a machine
retires ``tok_flops`` per token plus an attention term linear in the
tokens' attention-context length, with one fused-kernel overhead per block
per step — the overhead floor is what makes batched decode worthwhile.
Wire bytes per step follow the §5.1.3 byte volumes of whichever paradigm
serves the phase (``prefill_paradigm`` / ``decode_paradigm``, or ``auto``
to take the cheaper volume step by step, recorded per phase).

Everything is deterministic: no RNG is drawn during simulation, worker
loops iterate pools in fixed order, and results expose a :meth:`digest`
so reproducibility is checkable bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster import Cluster, Device
from ..config import ModelConfig
from ..core.paradigm import select_paradigm
from ..core.strategies import comm_family, resolve_strategy_name
from ..models.flops import dense_ffn_flops, expert_flops_per_token
from ..netsim import Fabric
from ..simkit import AllOf, Environment
from .arrivals import RequestTrace, expert_rank

__all__ = [
    "TOPOLOGIES",
    "ServingConfig",
    "ServingResult",
    "ServingSimulator",
    "simulate_serving",
]

TOPOLOGIES = ("unified", "disaggregated")


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving deployment (see module docstring)."""

    topology: str = "unified"
    #: Disaggregated only: machines devoted to prefill (default: half,
    #: at least one on each side).
    prefillers: Optional[int] = None
    #: Decode admission cap per worker (continuous-batching batch size).
    max_batch: int = 64
    #: Requests fused into one prefill step.
    prefill_batch: int = 8
    #: Disaggregated only: fraction of each MoE block's experts pinned on
    #: every decode worker; requests ranked under the cut skip the wire.
    pin_fraction: float = 0.25
    #: Strategy-registry name or "auto" per phase.
    prefill_paradigm: str = "auto"
    decode_paradigm: str = "auto"
    #: Service-level objectives: time-to-first-token and per-output-token
    #: latency bounds a request must meet to count toward goodput.
    ttft_slo_s: float = 0.5
    tpot_slo_s: float = 0.005
    #: Per-kind cap on recorded trace spans (0 disables span recording);
    #: million-request runs must not grow a million-span trace.
    span_budget: int = 512

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {TOPOLOGIES}, "
                f"got {self.topology!r}"
            )
        if self.prefillers is not None and self.prefillers <= 0:
            raise ValueError("prefillers must be positive")
        if self.max_batch <= 0 or self.prefill_batch <= 0:
            raise ValueError("max_batch and prefill_batch must be positive")
        if not 0.0 <= self.pin_fraction <= 1.0:
            raise ValueError("pin_fraction must be in [0, 1]")
        for phase_mode in (self.prefill_paradigm, self.decode_paradigm):
            if phase_mode != "auto":
                resolve_strategy_name(phase_mode)  # raises when unknown
        if self.ttft_slo_s <= 0 or self.tpot_slo_s <= 0:
            raise ValueError("SLO bounds must be positive")
        if self.span_budget < 0:
            raise ValueError("span_budget must be non-negative")


@dataclass
class ServingResult:
    """Per-request latencies plus run-level facts for one topology."""

    topology: str
    serving: ServingConfig
    trace: RequestTrace
    #: Simulated time each request produced its first token / finished.
    first_token_s: np.ndarray
    complete_s: np.ndarray
    makespan_s: float
    sim_events: int
    #: Per-phase counts of the paradigm chosen for each communicating step.
    paradigms: Dict[str, Dict[str, int]]
    #: machine -> NIC egress bytes.
    nic_egress_bytes: np.ndarray
    pools: Dict[str, Tuple[int, ...]]
    pin_count: int = 0
    pinned_tokens: int = 0
    missed_tokens: int = 0

    # -- derived per-request series -------------------------------------------

    @property
    def ttft_s(self) -> np.ndarray:
        return self.first_token_s - self.trace.arrival_s

    @property
    def e2e_s(self) -> np.ndarray:
        return self.complete_s - self.trace.arrival_s

    @property
    def decoded_mask(self) -> np.ndarray:
        """Requests with at least one decode step (output > 1)."""
        return self.trace.output_tokens > 1

    @property
    def tpot_s(self) -> np.ndarray:
        """Per-output-token decode latency of each decoded request."""
        mask = self.decoded_mask
        steps = self.trace.output_tokens[mask] - 1
        return (self.complete_s[mask] - self.first_token_s[mask]) / steps

    @property
    def slo_good(self) -> np.ndarray:
        """Requests meeting both SLO bounds (TPOT vacuous for output=1)."""
        good = self.ttft_s <= self.serving.ttft_slo_s
        mask = self.decoded_mask
        tpot_ok = np.ones(len(self.trace), dtype=bool)
        steps = np.maximum(self.trace.output_tokens - 1, 1)
        tpot_ok[mask] = (
            (self.complete_s[mask] - self.first_token_s[mask])
            / steps[mask]
        ) <= self.serving.tpot_slo_s
        return good & tpot_ok

    def summary(self) -> Dict:
        """Headline serving KPIs (pure simulated-time facts)."""
        ttft = self.ttft_s
        tpot = self.tpot_s
        percentile = np.percentile
        return {
            "topology": self.topology,
            "requests": len(self.trace),
            "makespan_s": float(self.makespan_s),
            "offered_rps": float(self.trace.offered_rate),
            "ttft_p50_ms": float(percentile(ttft, 50) * 1e3),
            "ttft_p99_ms": float(percentile(ttft, 99) * 1e3),
            "tpot_p50_ms": float(percentile(tpot, 50) * 1e3),
            "tpot_p99_ms": float(percentile(tpot, 99) * 1e3),
            "e2e_p99_ms": float(percentile(self.e2e_s, 99) * 1e3),
            "slo_attainment": float(self.slo_good.mean()),
            "goodput_rps": float(self.slo_good.sum() / self.makespan_s)
            if self.makespan_s > 0 else 0.0,
            "prefill_tokens": self.trace.total_prompt_tokens,
            "decode_tokens": int(
                (self.trace.output_tokens - 1).clip(min=0).sum()
            ),
            "pinned_tokens": self.pinned_tokens,
            "missed_tokens": self.missed_tokens,
            "nic_gb": float(self.nic_egress_bytes.sum() / 1e9),
            "paradigms": {
                phase: dict(sorted(counts.items()))
                for phase, counts in sorted(self.paradigms.items())
            },
            "sim_events": self.sim_events,
        }

    def digest(self) -> str:
        """Bit-identity of the run: trace bits plus every latency array."""
        digest = hashlib.sha256(self.trace.digest().encode())
        for array in (self.first_token_s, self.complete_s):
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()


class _Mailbox:
    """Single-consumer handoff queue between prefillers and one decoder."""

    __slots__ = ("env", "items", "_waiter")

    def __init__(self, env: Environment):
        self.env = env
        self.items: List[int] = []
        self._waiter = None

    def put(self, ids) -> None:
        self.items.extend(ids)
        waiter, self._waiter = self._waiter, None
        if waiter is not None:
            waiter.succeed()

    def drain(self) -> List[int]:
        items, self.items = self.items, []
        return items

    def wait(self):
        event = self.env.event()
        if self.items:
            event.succeed()
        else:
            self._waiter = event
        return event


@dataclass
class _PhaseState:
    """Mutable per-run bookkeeping shared by the worker generators."""

    remaining: np.ndarray
    context: np.ndarray
    first_token_s: np.ndarray
    complete_s: np.ndarray
    paradigms: Dict[str, Dict[str, int]] = field(
        default_factory=lambda: {"prefill": {}, "decode": {}}
    )
    pinned_tokens: int = 0
    missed_tokens: int = 0


class ServingSimulator:
    """One serving deployment of a model on a cluster (see module doc)."""

    def __init__(
        self,
        config: ModelConfig,
        cluster: Cluster,
        trace: RequestTrace,
        serving: ServingConfig = ServingConfig(),
        metrics=None,
        recorder=None,
    ):
        if not config.moe_block_indices:
            raise ValueError("serving needs a model with MoE blocks")
        self.config = config
        self.cluster = cluster
        self.trace = trace
        self.serving = serving
        self.metrics = metrics
        self.recorder = recorder

        machines = cluster.num_machines
        if serving.topology == "disaggregated":
            prefillers = (
                serving.prefillers
                if serving.prefillers is not None
                else max(1, machines // 2)
            )
            if prefillers >= machines:
                raise ValueError(
                    f"disaggregation needs at least one decoder: "
                    f"{prefillers} prefiller(s) on {machines} machine(s)"
                )
            self.prefill_pool = tuple(range(prefillers))
            self.decode_pool = tuple(range(prefillers, machines))
        else:
            self.prefill_pool = tuple(range(machines))
            self.decode_pool = tuple(range(machines))

        # -- cost model (per machine: all its GPUs act as one worker) ---------
        hidden = config.hidden_dim
        spec = cluster.spec
        self.machine_flops = spec.num_gpus * spec.gpu.effective_flops(hidden)
        self.step_overhead_s = spec.gpu.kernel_overhead * config.num_blocks
        moe = config.moe_block_indices
        self.num_experts = config.num_experts(moe[0])
        self.moe_blocks = config.num_moe_blocks
        dense_blocks = config.num_blocks - self.moe_blocks
        per_expert = expert_flops_per_token(hidden, config.ffn_mult)
        gate = 2.0 * hidden * sum(
            config.num_experts(index) for index in moe
        )
        # One token through the whole stack: QKV/output projections on
        # every block, dense FFN on non-MoE blocks, gate + top-k experts
        # on MoE blocks.  Attention's score/context term scales with the
        # token's context length and is accounted separately.
        self.tok_flops = (
            config.num_blocks * 8.0 * hidden * hidden
            + dense_blocks * dense_ffn_flops(1, 1, hidden, config.ffn_mult)
            + gate
            + self.moe_blocks * config.top_k * per_expert
        )
        self.ctx_flops = 4.0 * hidden * config.num_blocks
        self.kv_bytes_per_token = (
            2.0 * config.num_blocks * hidden * config.dtype_bytes
        )

        self.phase_mode = {
            "prefill": serving.prefill_paradigm,
            "decode": serving.decode_paradigm,
        }
        if serving.topology == "disaggregated":
            self.pin_count = int(round(serving.pin_fraction
                                       * self.num_experts))
        else:
            self.pin_count = 0

        self._peer_rr: Dict[Tuple[str, int], int] = {}
        self._kv_rr: Dict[int, int] = {}
        self._span_counts: Dict[str, int] = {}

    # -- metric / trace helpers ------------------------------------------------

    def _count(self, name: str, value: float = 1.0, **labels) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value, **labels)

    def _observe(self, name: str, value: float, **labels) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, value, **labels)

    def _span(self, kind: str, start: float, end: float, machine: int,
              detail: str) -> None:
        if self.recorder is None:
            return
        seen = self._span_counts.get(kind, 0)
        if seen >= self.serving.span_budget:
            return
        self._span_counts[kind] = seen + 1
        self.recorder.record(kind, start, end, worker=machine, detail=detail)

    # -- the per-step traffic model --------------------------------------------

    def _phase_traffic(
        self, phase: str, pool: Tuple[int, ...],
        token_copies: float, expert_cap: float,
    ) -> Tuple[float, Optional[str]]:
        """Wire bytes one step moves off-worker, and the paradigm used.

        ``token_copies`` is routed (token, expert) pairs per MoE block;
        ``expert_cap`` bounds how many distinct experts the step can touch
        (a decode step cannot touch more experts than it routes tokens).
        Uncapped, the volumes are ``comm_expert_centric`` /
        ``comm_data_centric`` with one worker per machine, times the MoE
        blocks; the cap is the one intended difference.
        """
        size = len(pool)
        if size <= 1 or token_copies <= 0:
            return 0.0, None
        off_worker = (size - 1) / size
        expert_centric = (
            2.0 * token_copies * self.moe_blocks
            * off_worker * self.config.token_bytes
        )
        data_centric = (
            min(self.num_experts, expert_cap) * self.moe_blocks
            * off_worker * self.config.expert_bytes
        )
        name = self.phase_mode[phase]
        if name == "auto":
            # Eq. 1 pointwise: R is the step's EC/DC byte ratio; ties go
            # to expert-centric.
            name = select_paradigm(expert_centric / data_centric).value
        size_bytes = (
            data_centric
            if comm_family(name) == "data-centric"
            else expert_centric
        )
        counts = self.state.paradigms[phase]
        counts[name] = counts.get(name, 0) + 1
        return size_bytes, name

    def _wire(self, phase: str, machine: int, pool: Tuple[int, ...],
              size_bytes: float, paradigm: str):
        """Start the step's aggregated off-worker flow; returns its event.

        Expert-centric ships tokens out to a peer; data-centric pulls
        expert parameters in from one.  Peers rotate round-robin so the
        byte bill spreads across the pool deterministically.
        """
        peers = [peer for peer in pool if peer != machine]
        slot = self._peer_rr.get((phase, machine), 0)
        self._peer_rr[(phase, machine)] = slot + 1
        peer = peers[slot % len(peers)]
        if comm_family(paradigm) == "data-centric":
            src, dst = peer, machine
        else:
            src, dst = machine, peer
        flow = self.fabric.transfer(
            Device.host(src), Device.host(dst), size_bytes,
            tag=("serve", phase, machine),
        )
        self._count("serve.bytes", size_bytes, kind=phase)
        return flow.done

    # -- phase steps -----------------------------------------------------------

    def _prefill_step(self, machine: int, ids: List[int]):
        env = self.env
        trace = self.trace
        state = self.state
        prompts = trace.prompt_tokens[ids]
        tokens = int(prompts.sum())
        attention_units = float(
            (prompts.astype(float) * (prompts + 1.0)).sum()
        ) / 2.0
        seconds = (
            tokens * self.tok_flops + attention_units * self.ctx_flops
        ) / self.machine_flops + self.step_overhead_s
        size_bytes, paradigm = self._phase_traffic(
            "prefill", self.prefill_pool,
            tokens * self.config.top_k, self.num_experts,
        )
        start = env.now
        waits = [env.timeout(seconds)]
        if size_bytes > 0:
            waits.append(self._wire(
                "prefill", machine, self.prefill_pool, size_bytes, paradigm
            ))
        yield waits[0] if len(waits) == 1 else AllOf(env, waits)
        now = env.now
        for request in ids:
            state.first_token_s[request] = now
            self._observe("serve.ttft_s", now - trace.arrival_s[request])
        self._count("serve.steps", phase="prefill")
        self._count("serve.tokens", tokens, phase="prefill")
        self._count("serve.requests", len(ids), kind="prefilled")
        self._span("serve.prefill", start, now, machine,
                   f"{len(ids)} req / {tokens} tok")

    def _decode_step(self, machine: int, pool: Tuple[int, ...],
                     active: List[int], context_sum: float, pinned: bool):
        env = self.env
        state = self.state
        batch = len(active)
        batch_ids = np.asarray(active, dtype=np.int64)
        seconds = (
            batch * self.tok_flops + context_sum * self.ctx_flops
        ) / self.machine_flops + self.step_overhead_s
        if pinned and self.pin_count > 0:
            hot = int(self.hot[batch_ids].sum())
        else:
            hot = 0
        missed = batch - hot
        state.pinned_tokens += hot
        state.missed_tokens += missed
        copies = missed * self.config.top_k
        size_bytes, paradigm = self._phase_traffic(
            "decode", pool, copies, copies,
        )
        start = env.now
        waits = [env.timeout(seconds)]
        if size_bytes > 0:
            waits.append(self._wire(
                "decode", machine, pool, size_bytes, paradigm
            ))
        yield waits[0] if len(waits) == 1 else AllOf(env, waits)
        now = env.now
        retired_context = 0
        state.remaining[batch_ids] -= 1
        state.context[batch_ids] += 1
        done_mask = state.remaining[batch_ids] == 0
        if done_mask.any():
            finished = batch_ids[done_mask]
            state.complete_s[finished] = now
            retired_context = int(state.context[finished].sum())
            for request in finished:
                self._finish(int(request), now)
            active[:] = batch_ids[~done_mask].tolist()
        self._count("serve.steps", phase="decode")
        self._count("serve.tokens", batch, phase="decode")
        self._observe("serve.batch", batch, phase="decode")
        self._span("serve.decode", start, now, machine,
                   f"batch {batch}" + (f" / {hot} pinned" if pinned else ""))
        return context_sum + batch - retired_context

    def _finish(self, request: int, now: float) -> None:
        trace = self.trace
        state = self.state
        self._count("serve.requests", kind="completed")
        self._observe("serve.e2e_s", now - trace.arrival_s[request])
        steps = int(trace.output_tokens[request]) - 1
        if steps > 0:
            self._observe(
                "serve.tpot_s",
                (now - state.first_token_s[request]) / steps,
            )

    # -- workers ---------------------------------------------------------------

    def _unified_worker(self, machine: int, assigned: List[int]):
        """One machine serving both phases with continuous batching."""
        env = self.env
        serving = self.serving
        arrivals = self.trace.arrival_s
        state = self.state
        queue = deque(assigned)
        active: List[int] = []
        context_sum = 0.0
        while queue or active:
            now = env.now
            admit: List[int] = []
            room = serving.max_batch - len(active)
            while (queue and len(admit) < serving.prefill_batch
                   and len(admit) < room and arrivals[queue[0]] <= now):
                admit.append(queue.popleft())
            if admit:
                # Prefill takes priority over the next decode step: this
                # is the head-of-line blocking a disaggregated decode
                # pool exists to avoid.
                yield from self._prefill_step(machine, admit)
                for request in admit:
                    if state.remaining[request] == 0:
                        state.complete_s[request] = state.first_token_s[
                            request
                        ]
                        self._finish(request, env.now)
                    else:
                        active.append(request)
                        context_sum += float(state.context[request])
                continue
            if active:
                context_sum = yield from self._decode_step(
                    machine, self.decode_pool, active, context_sum,
                    pinned=False,
                )
                continue
            yield env.timeout(arrivals[queue[0]] - now)

    def _prefill_worker(self, machine: int, assigned: List[int]):
        """Disaggregated prefiller: batch prefills, stream KV to decoders.

        KV transfers start *with* the prefill step, not after it —
        layer-wise streaming ships each layer's cache as soon as that
        layer's prefill retires, so the wire time overlaps prefill
        compute instead of landing in the request's first inter-token
        gap.  Per-request flows rotate across the machine's NICs.
        """
        env = self.env
        serving = self.serving
        arrivals = self.trace.arrival_s
        state = self.state
        queue = deque(assigned)
        while queue:
            now = env.now
            if arrivals[queue[0]] > now:
                yield env.timeout(arrivals[queue[0]] - now)
                continue
            admit: List[int] = []
            while (queue and len(admit) < serving.prefill_batch
                   and arrivals[queue[0]] <= now):
                admit.append(queue.popleft())
            handoff: Dict[int, List[int]] = {}
            for request in admit:
                if state.remaining[request] > 0:
                    handoff.setdefault(
                        int(self.decoder_of[request]), []
                    ).append(request)
            flows = {
                decoder: self._kv_flows(machine, decoder, ids)
                for decoder, ids in sorted(handoff.items())
            }
            yield from self._prefill_step(machine, admit)
            for request in admit:
                if state.remaining[request] == 0:
                    state.complete_s[request] = state.first_token_s[request]
                    self._finish(request, env.now)
            for decoder, ids in sorted(handoff.items()):
                env.process(
                    self._kv_handoff(machine, decoder, ids, flows[decoder]),
                    name=f"serve.kv.{machine}->{decoder}",
                )

    def _kv_flows(self, src: int, dst: int, ids: List[int]) -> List:
        """Start the group's KV-cache flows, striped across the NICs.

        Requests are dealt round-robin onto NIC lanes and each lane
        carries one aggregated flow — the sweet spot between a single
        serialized transfer (one NIC's bandwidth) and per-request flows
        (a fluid-solver rate recompute per request).
        """
        num_nics = self.cluster.spec.num_nics
        lanes: Dict[int, float] = {}
        for request in ids:
            slot = self._kv_rr.get(src, 0)
            self._kv_rr[src] = slot + 1
            lane = slot % num_nics
            size_bytes = float(
                self.kv_bytes_per_token * self.trace.prompt_tokens[request]
            )
            lanes[lane] = lanes.get(lane, 0.0) + size_bytes
            self._count("serve.bytes", size_bytes, kind="kv")
        return [
            self.fabric.transfer(
                Device.host(src), Device.host(dst), size_bytes,
                nic_index=lane, tag=("serve", "kv", src),
            )
            for lane, size_bytes in sorted(lanes.items())
        ]

    def _kv_handoff(self, src: int, dst: int, ids: List[int], flows: List):
        """Wait out the residual KV wire time, then enqueue at the decoder."""
        start = self.env.now
        for flow in flows:
            if not flow.done.triggered:
                yield flow.done
        self._span("serve.kv", start, self.env.now, src,
                   f"{len(ids)} req -> m{dst}")
        self.mailboxes[dst].put(ids)

    def _decode_worker(self, machine: int, expected: int):
        """Disaggregated decoder: admit from the mailbox between steps."""
        serving = self.serving
        state = self.state
        mailbox = self.mailboxes[machine]
        pending: deque = deque()
        active: List[int] = []
        context_sum = 0.0
        finished = 0
        while finished < expected or active or pending:
            pending.extend(mailbox.drain())
            while pending and len(active) < serving.max_batch:
                request = pending.popleft()
                active.append(request)
                context_sum += float(state.context[request])
            if active:
                before = len(active)
                context_sum = yield from self._decode_step(
                    machine, self.decode_pool, active, context_sum,
                    pinned=True,
                )
                finished += before - len(active)
            else:
                yield mailbox.wait()

    # -- driver ----------------------------------------------------------------

    def run(self) -> ServingResult:
        trace = self.trace
        count = len(trace)
        self.env = Environment()
        self.fabric = Fabric(self.env, self.cluster)
        self.state = _PhaseState(
            remaining=(trace.output_tokens - 1).astype(np.int64),
            context=trace.prompt_tokens.astype(np.int64).copy(),
            first_token_s=np.full(count, -1.0),
            complete_s=np.full(count, -1.0),
        )
        ranks = expert_rank(
            trace.affinity, self.num_experts, trace.spec.skew
        )
        self.hot = ranks < self.pin_count
        self._count("serve.requests", count, kind="offered")

        ids = np.arange(count)
        if self.serving.topology == "disaggregated":
            decoders = np.asarray(self.decode_pool)
            self.decoder_of = decoders[ids % len(decoders)]
            self.mailboxes = {
                machine: _Mailbox(self.env) for machine in self.decode_pool
            }
            for slot, machine in enumerate(self.prefill_pool):
                assigned = ids[ids % len(self.prefill_pool) == slot]
                self.env.process(
                    self._prefill_worker(machine, list(assigned)),
                    name=f"serve.prefiller.{machine}",
                )
            decode_needed = self.state.remaining > 0
            for machine in self.decode_pool:
                expected = int(
                    (decode_needed & (self.decoder_of == machine)).sum()
                )
                self.env.process(
                    self._decode_worker(machine, expected),
                    name=f"serve.decoder.{machine}",
                )
        else:
            for slot, machine in enumerate(self.prefill_pool):
                assigned = ids[ids % len(self.prefill_pool) == slot]
                self.env.process(
                    self._unified_worker(machine, list(assigned)),
                    name=f"serve.worker.{machine}",
                )
        self.env.run()

        state = self.state
        nic = np.array([
            self.fabric.nic_bytes(machine, "out")
            for machine in range(self.cluster.num_machines)
        ])
        return ServingResult(
            topology=self.serving.topology,
            serving=self.serving,
            trace=trace,
            first_token_s=state.first_token_s,
            complete_s=state.complete_s,
            makespan_s=float(self.env.now),
            sim_events=self.env.events_processed,
            paradigms=state.paradigms,
            nic_egress_bytes=nic,
            pools={
                "prefill": self.prefill_pool,
                "decode": self.decode_pool,
            },
            pin_count=self.pin_count,
            pinned_tokens=state.pinned_tokens,
            missed_tokens=state.missed_tokens,
        )


def simulate_serving(
    config: ModelConfig,
    cluster: Cluster,
    trace: RequestTrace,
    serving: ServingConfig = ServingConfig(),
    metrics=None,
    recorder=None,
) -> ServingResult:
    """Run one topology end to end (convenience wrapper)."""
    return ServingSimulator(
        config, cluster, trace, serving,
        metrics=metrics, recorder=recorder,
    ).run()
