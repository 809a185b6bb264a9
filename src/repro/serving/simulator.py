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
from ..core.strategies import get_strategy, strategy_names
from ..domains import NON_NEGATIVE_INT, POSITIVE, POSITIVE_INT, UNIT, Choice, check_fields, domain
from ..models.flops import dense_ffn_flops, expert_flops_per_token
from ..netsim import Fabric
from ..simkit import AllOf, Environment
from .arrivals import RequestTrace, expert_rank

__all__ = [
    "ServingConfig",
    "ServingResult",
    "ServingSimulator",
    "simulate_serving",
]

_PARADIGMS = Choice((*strategy_names(), "auto"))


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving deployment (see module docstring)."""

    topology: str = domain(Choice(("unified", "disaggregated")), "unified")
    #: Disaggregated only: machines devoted to prefill (default: half,
    #: at least one on each side).
    prefillers: Optional[int] = domain(POSITIVE_INT.or_none(), None)
    #: Decode admission cap per worker (continuous-batching batch size).
    max_batch: int = domain(POSITIVE_INT, 64)
    #: Requests fused into one prefill step.
    prefill_batch: int = domain(POSITIVE_INT, 8)
    #: Disaggregated only: fraction of each MoE block's experts pinned on
    #: every decode worker; requests ranked under the cut skip the wire.
    pin_fraction: float = domain(UNIT, 0.25)
    #: Strategy name or "auto" per phase.
    prefill_paradigm: str = domain(_PARADIGMS, "auto")
    decode_paradigm: str = domain(_PARADIGMS, "auto")
    #: Service-level objectives: time-to-first-token and per-output-token
    #: latency bounds a request must meet to count toward goodput.
    ttft_slo_s: float = domain(POSITIVE, 0.5)
    tpot_slo_s: float = domain(POSITIVE, 0.005)
    #: Per-kind cap on recorded trace spans (0 disables span recording);
    #: million-request runs must not grow a million-span trace.
    span_budget: int = domain(NON_NEGATIVE_INT, 512)

    def __post_init__(self):
        check_fields(self)


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
        """Headline serving KPIs (pure simulated-time facts).  The TPOT
        percentiles are ``None`` when no request decodes (every output is
        one token)."""
        ttft = self.ttft_s
        tpot = self.tpot_s
        percentile = np.percentile

        def tpot_ms(q):
            return float(percentile(tpot, q) * 1e3) if len(tpot) else None

        return {
            "topology": self.topology,
            "requests": len(self.trace),
            "makespan_s": float(self.makespan_s),
            "offered_rps": float(self.trace.offered_rate),
            "ttft_p50_ms": float(percentile(ttft, 50) * 1e3),
            "ttft_p99_ms": float(percentile(ttft, 99) * 1e3),
            "tpot_p50_ms": tpot_ms(50),
            "tpot_p99_ms": tpot_ms(99),
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

    first_token_s: np.ndarray
    complete_s: np.ndarray
    paradigms: Dict[str, Dict[str, int]] = field(
        default_factory=lambda: {"prefill": {}, "decode": {}}
    )
    pinned_tokens: int = 0
    missed_tokens: int = 0


class _DecodeBatch:
    """One worker's decode batch, each request's completion fixed when it
    is admitted.

    Every active request advances exactly one token per decode step of
    its worker.  So a request admitted after ``steps`` steps with ``r``
    tokens left to decode finishes at the end of step ``steps + r``, with
    attention context ``prompt + output - 1``.  A step reads its size,
    hot count and context sum here in O(1) and pops its completions from
    ``due`` in admission order.  Once ``steps`` reaches ``horizon``, the
    latest finish step scheduled, the batch must be empty; a request left
    over was scheduled wrong and would otherwise decode forever.
    """

    __slots__ = ("size", "hot", "context", "steps", "due", "horizon")

    def __init__(self):
        self.size = 0  # active requests
        self.hot = 0  # active requests routed to a pinned expert
        self.context = 0  # summed attention context of the active requests
        self.steps = 0  # decode steps completed
        self.due: Dict[int, List[int]] = {}  # step -> requests it finishes
        self.horizon = 0  # latest step in ``due``


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
        self.token_bytes = config.token_bytes
        self.expert_bytes = config.expert_bytes

        self.phase_mode = {
            "prefill": serving.prefill_paradigm,
            "decode": serving.decode_paradigm,
        }
        if serving.topology == "disaggregated":
            self.pin_count = int(round(serving.pin_fraction
                                       * self.num_experts))
        else:
            self.pin_count = 0

        # Per-step lookups resolved once: host devices, each worker's wire
        # peers per phase, and each paradigm name's byte family.
        self._hosts = [Device.host(machine) for machine in range(machines)]
        self._peers: Dict[Tuple[str, int], List[int]] = {
            (phase, machine): [peer for peer in pool if peer != machine]
            for phase, pool in (("prefill", self.prefill_pool),
                                ("decode", self.decode_pool))
            for machine in pool
        }
        self._pulls: Dict[str, bool] = {}
        self._peer_rr: Dict[Tuple[str, int], int] = {}
        self._kv_rr: Dict[int, int] = {}
        self._span_counts: Dict[str, int] = {}

    # -- trace helper ----------------------------------------------------------

    def _span(self, kind: str, start: float, end: float, machine: int,
              detail: str) -> None:
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
            * off_worker * self.token_bytes
        )
        data_centric = (
            min(self.num_experts, expert_cap) * self.moe_blocks
            * off_worker * self.expert_bytes
        )
        name = self.phase_mode[phase]
        if name == "auto":
            # Eq. 1 pointwise: R is the step's EC/DC byte ratio; ties go
            # to expert-centric.
            name = select_paradigm(expert_centric / data_centric)
        pulls = self._pulls.get(name)
        if pulls is None:
            # Task-queue strategies pull experts to the data (the
            # data-centric volume); every other ships tokens to experts.
            pulls = self._pulls[name] = get_strategy(name).uses_task_queue
        size_bytes = data_centric if pulls else expert_centric
        counts = self.state.paradigms[phase]
        counts[name] = counts.get(name, 0) + 1
        return size_bytes, name

    def _wire(self, phase: str, machine: int, size_bytes: float,
              paradigm: str):
        """Start the step's aggregated off-worker flow; returns its event.

        Expert-centric ships tokens out to a peer; data-centric pulls
        expert parameters in from one.  Peers rotate round-robin so the
        byte bill spreads across the pool deterministically.
        """
        key = (phase, machine)
        peers = self._peers[key]
        slot = self._peer_rr.get(key, 0)
        self._peer_rr[key] = slot + 1
        peer = peers[slot % len(peers)]
        if self._pulls[paradigm]:
            src, dst = peer, machine
        else:
            src, dst = machine, peer
        flow = self.fabric.transfer(
            self._hosts[src], self._hosts[dst], size_bytes,
            tag=("serve", phase, machine),
        )
        if self.metrics is not None:
            self.metrics.inc("serve.bytes", size_bytes, kind=phase)
        return flow.done

    # -- phase steps -----------------------------------------------------------

    def _prefill_step(self, machine: int, ids: List[int]):
        env = self.env
        prompt = self._prompt
        tokens = 0
        units = 0
        for request in ids:
            length = prompt[request]
            tokens += length
            units += length * (length + 1)
        # Summed as exact integers and halved once: equal to a float sum
        # of the per-request p(p+1) while the total stays below 2**53.
        attention_units = float(units) / 2.0
        seconds = (
            tokens * self.tok_flops + attention_units * self.ctx_flops
        ) / self.machine_flops + self.step_overhead_s
        size_bytes, paradigm = self._phase_traffic(
            "prefill", self.prefill_pool,
            tokens * self.config.top_k, self.num_experts,
        )
        start = env.now
        timeout = env.timeout(seconds)
        if size_bytes > 0:
            yield AllOf(env, [timeout, self._wire(
                "prefill", machine, size_bytes, paradigm
            )])
        else:
            yield timeout
        now = env.now
        first_token_s = self.state.first_token_s
        for request in ids:
            first_token_s[request] = now
        metrics = self.metrics
        if metrics is not None:
            arrivals = self._arrival
            for request in ids:
                metrics.observe("serve.ttft_s", now - arrivals[request])
            metrics.inc("serve.steps", phase="prefill")
            metrics.inc("serve.tokens", tokens, phase="prefill")
            metrics.inc("serve.requests", len(ids), kind="prefilled")
        if self.recorder is not None:
            self._span("serve.prefill", start, now, machine,
                       f"{len(ids)} req / {tokens} tok")

    def _admit(self, batch: _DecodeBatch, request: int) -> None:
        """Add a prefilled request to ``batch`` and schedule its finish."""
        batch.size += 1
        batch.hot += self._hot[request]
        batch.context += self._prompt[request]
        due = batch.steps + self._remaining[request]
        finishing = batch.due.get(due)
        if finishing is None:
            batch.due[due] = [request]
            if due > batch.horizon:
                batch.horizon = due
        else:
            finishing.append(request)

    def _decode_step(self, machine: int, batch: _DecodeBatch, pinned: bool):
        env = self.env
        state = self.state
        size = batch.size
        seconds = (
            size * self.tok_flops + batch.context * self.ctx_flops
        ) / self.machine_flops + self.step_overhead_s
        hot = batch.hot
        missed = size - hot
        state.pinned_tokens += hot
        state.missed_tokens += missed
        copies = missed * self.config.top_k
        size_bytes, paradigm = self._phase_traffic(
            "decode", self.decode_pool, copies, copies,
        )
        start = env.now
        timeout = env.timeout(seconds)
        if size_bytes > 0:
            yield AllOf(env, [timeout, self._wire(
                "decode", machine, size_bytes, paradigm
            )])
        else:
            yield timeout
        now = env.now
        batch.steps += 1
        batch.context += size
        metrics = self.metrics
        finished = batch.due.pop(batch.steps, None)
        if finished is not None:
            complete_s = state.complete_s
            prompt = self._prompt
            remaining = self._remaining
            hot_of = self._hot
            for request in finished:
                complete_s[request] = now
                # Its context at finish: prompt + output - 1.
                batch.context -= prompt[request] + remaining[request]
                batch.hot -= hot_of[request]
            batch.size -= len(finished)
            if metrics is not None:
                for request in finished:
                    self._finish(request, now)
        if batch.size and batch.steps >= batch.horizon:
            raise RuntimeError(
                f"decode batch on machine {machine}: {batch.size} "
                f"request(s) past their finish step {batch.horizon}"
            )
        if metrics is not None:
            metrics.inc("serve.steps", phase="decode")
            metrics.inc("serve.tokens", size, phase="decode")
            metrics.observe("serve.batch", size, phase="decode")
        if self.recorder is not None:
            self._span(
                "serve.decode", start, now, machine,
                f"batch {size}" + (f" / {hot} pinned" if pinned else ""),
            )

    def _finish(self, request: int, now: float) -> None:
        """Observe a completed request (only with metrics attached)."""
        metrics = self.metrics
        metrics.inc("serve.requests", kind="completed")
        metrics.observe("serve.e2e_s", now - self._arrival[request])
        steps = self._remaining[request]
        if steps > 0:
            metrics.observe(
                "serve.tpot_s",
                (now - self.state.first_token_s[request]) / steps,
            )

    def _complete_at_prefill(self, request: int) -> None:
        """Finish a one-token request with its prefill."""
        state = self.state
        state.complete_s[request] = state.first_token_s[request]
        if self.metrics is not None:
            self._finish(request, self.env.now)

    # -- workers ---------------------------------------------------------------

    def _unified_worker(self, machine: int, assigned: List[int]):
        """One machine serving both phases with continuous batching."""
        env = self.env
        serving = self.serving
        arrivals = self._arrival
        remaining = self._remaining
        queue = deque(assigned)
        batch = _DecodeBatch()
        while queue or batch.size:
            now = env.now
            admit: List[int] = []
            room = serving.max_batch - batch.size
            while (queue and len(admit) < serving.prefill_batch
                   and len(admit) < room and arrivals[queue[0]] <= now):
                admit.append(queue.popleft())
            if admit:
                # Prefill takes priority over the next decode step: this
                # is the head-of-line blocking a disaggregated decode
                # pool exists to avoid.
                yield from self._prefill_step(machine, admit)
                for request in admit:
                    if remaining[request] == 0:
                        self._complete_at_prefill(request)
                    else:
                        self._admit(batch, request)
                continue
            if batch.size:
                yield from self._decode_step(machine, batch, pinned=False)
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
        arrivals = self._arrival
        remaining = self._remaining
        decoder_of = self._decoder
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
                if remaining[request] > 0:
                    handoff.setdefault(decoder_of[request], []).append(
                        request
                    )
            groups = sorted(handoff.items())
            flows = [
                self._kv_flows(machine, decoder, ids)
                for decoder, ids in groups
            ]
            yield from self._prefill_step(machine, admit)
            for request in admit:
                if remaining[request] == 0:
                    self._complete_at_prefill(request)
            for (decoder, ids), group_flows in zip(groups, flows):
                env.process(
                    self._kv_handoff(machine, decoder, ids, group_flows),
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
        prompt = self._prompt
        metrics = self.metrics
        lanes: Dict[int, float] = {}
        slot = self._kv_rr.get(src, 0)
        for request in ids:
            lane = slot % num_nics
            slot += 1
            size_bytes = self.kv_bytes_per_token * prompt[request]
            lanes[lane] = lanes.get(lane, 0.0) + size_bytes
            if metrics is not None:
                metrics.inc("serve.bytes", size_bytes, kind="kv")
        self._kv_rr[src] = slot
        return [
            self.fabric.transfer(
                self._hosts[src], self._hosts[dst], size_bytes,
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
        if self.recorder is not None:
            self._span("serve.kv", start, self.env.now, src,
                       f"{len(ids)} req -> m{dst}")
        self.mailboxes[dst].put(ids)

    def _decode_worker(self, machine: int, expected: int):
        """Disaggregated decoder: admit from the mailbox between steps."""
        max_batch = self.serving.max_batch
        mailbox = self.mailboxes[machine]
        pending: deque = deque()
        batch = _DecodeBatch()
        finished = 0
        while finished < expected or batch.size or pending:
            pending.extend(mailbox.drain())
            while pending and batch.size < max_batch:
                self._admit(batch, pending.popleft())
            if batch.size:
                before = batch.size
                yield from self._decode_step(machine, batch, pinned=True)
                finished += before - batch.size
            else:
                yield mailbox.wait()

    # -- driver ----------------------------------------------------------------

    def run(self) -> ServingResult:
        trace = self.trace
        count = len(trace)
        self.env = Environment()
        self.fabric = Fabric(self.env, self.cluster)
        self.state = _PhaseState(
            first_token_s=np.full(count, -1.0),
            complete_s=np.full(count, -1.0),
        )
        # Per-request facts, read by the steps as plain Python values.
        self._prompt = trace.prompt_tokens.tolist()
        self._arrival = trace.arrival_s.tolist()
        self._remaining = (trace.output_tokens - 1).tolist()
        ranks = expert_rank(
            trace.affinity, self.num_experts, trace.spec.skew
        )
        self._hot = (ranks < self.pin_count).tolist()
        if self.metrics is not None:
            self.metrics.inc("serve.requests", count, kind="offered")

        if self.serving.topology == "disaggregated":
            ids = np.arange(count)
            decoders = np.asarray(self.decode_pool)[
                ids % len(self.decode_pool)
            ]
            self._decoder = decoders.tolist()
            self.mailboxes = {
                machine: _Mailbox(self.env) for machine in self.decode_pool
            }
            self._start_workers(self._prefill_worker, "prefiller")
            decode_needed = trace.output_tokens > 1
            for machine in self.decode_pool:
                expected = int((decode_needed & (decoders == machine)).sum())
                self.env.process(
                    self._decode_worker(machine, expected),
                    name=f"serve.decoder.{machine}",
                )
        else:
            self._start_workers(self._unified_worker, "worker")
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

    def _start_workers(self, worker, role: str) -> None:
        """One ``worker`` per prefill-pool machine; requests are dealt to
        them round-robin by id."""
        stride = len(self.prefill_pool)
        for slot, machine in enumerate(self.prefill_pool):
            self.env.process(
                worker(machine, list(range(slot, len(self.trace), stride))),
                name=f"serve.{role}.{machine}",
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
