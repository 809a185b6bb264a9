"""Unit tests for the Task Queue schedulers against a hand-built context."""

import pytest

from repro.cluster import Cluster, MachineSpec
from repro.config import ModelConfig, moe_gpt
from repro.core import (
    InterNodeScheduler,
    IntraNodeScheduler,
    IterationContext,
    JanusFeatures,
    build_workload,
    engine_for,
)
from repro.netsim import Fabric
from repro.simkit import AllOf, Environment
from repro.trace import TraceRecorder


def make_context(
    machines=2,
    gpus=2,
    num_experts=8,
    features=None,
    batch_size=16,
):
    config = ModelConfig(
        name="sched", batch_size=batch_size, seq_len=16, top_k=2,
        hidden_dim=32, num_blocks=3, experts_per_block={1: num_experts},
        num_heads=4,
    )
    cluster = Cluster(machines, MachineSpec(num_gpus=gpus))
    workload = build_workload(config, cluster)
    env = Environment()
    fabric = Fabric(env, cluster)
    ctx = IterationContext(
        env, fabric, workload,
        features if features is not None else JanusFeatures(),
        TraceRecorder(),
    )
    return ctx


def start_iteration(ctx):
    ctx.iteration_start.succeed()
    for (phase, block, rank), event in ctx.block_entry.items():
        if not event.triggered:
            event.succeed()


class TestContextHelpers:
    def test_needed_partition(self):
        ctx = make_context()
        # World 4, 8 experts, E=2: worker 0 owns {0,1}; machine 0 owns
        # {0..3}; internal for worker 0 = {2,3}, external = {4..7}.
        assert ctx.own_experts_with_tokens(1, 0) == [0, 1]
        assert ctx.needed_internal(1, 0) == [2, 3]
        assert ctx.needed_external(1, 0) == [4, 5, 6, 7]
        needed = ctx.needed_experts(1, 0)
        assert sorted(
            ctx.needed_internal(1, 0) + ctx.needed_external(1, 0)
        ) == needed

    def test_machine_external_union(self):
        ctx = make_context()
        assert ctx.machine_external_experts(1, 0) == [4, 5, 6, 7]
        assert ctx.machine_external_experts(1, 1) == [0, 1, 2, 3]

    def test_fetch_start_event_prefetch_vs_entry(self):
        prefetch_ctx = make_context(features=JanusFeatures(prefetch=True))
        entry_ctx = make_context(features=JanusFeatures(prefetch=False))
        assert (
            prefetch_ctx.fetch_start_event("fwd", 1, 0)
            is prefetch_ctx.iteration_start
        )
        assert (
            entry_ctx.fetch_start_event("fwd", 1, 0)
            is entry_ctx.block_entry[("fwd", 1, 0)]
        )
        # Backward fetching always waits for backward block entry.
        assert (
            prefetch_ctx.fetch_start_event("bwd", 1, 0)
            is prefetch_ctx.block_entry[("bwd", 1, 0)]
        )

    def test_mark_ready_triggers_event_and_store(self):
        ctx = make_context()
        ctx.mark_ready("fwd", 1, 0, 5)
        assert ctx.ready_event("fwd", 1, 0, 5).triggered
        assert ctx.ready_store("fwd", 1, 0).items == [5]
        arrivals = ctx.trace.expert_arrivals(worker=0)
        assert arrivals and arrivals[0]["expert"] == 5

    def test_dc_blocks_subset_validated(self):
        config = ModelConfig(
            name="x", batch_size=4, seq_len=8, top_k=2, hidden_dim=32,
            num_blocks=3, experts_per_block={1: 8}, num_heads=4,
        )
        cluster = Cluster(2, MachineSpec(num_gpus=2))
        workload = build_workload(config, cluster)
        env = Environment()
        with pytest.raises(ValueError):
            IterationContext(
                env, Fabric(env, cluster), workload, JanusFeatures(),
                TraceRecorder(), dc_blocks={0},
            )


class TestIntraScheduler:
    def run_pipeline(self, ctx, rank):
        scheduler = IntraNodeScheduler(ctx, rank)
        proc = ctx.env.process(scheduler.pull_pipeline("fwd"))
        start_iteration(ctx)
        # Satisfy cache events so external copies can proceed.
        for expert in ctx.machine_external_experts(1, ctx.layout.machine_of(rank)):
            event = ctx.cached_event(1, ctx.layout.machine_of(rank), expert)
            if not event.triggered:
                event.succeed()
        # Consume arrivals so credits recycle.
        consumed = []

        def consumer():
            store = ctx.ready_store("fwd", 1, rank)
            needed = len(ctx.needed_experts(1, rank))
            for _ in range(needed):
                expert = yield store.get()
                consumed.append(expert)
                ctx.credits[rank].put(1)

        consumer_proc = ctx.env.process(consumer())

        def driver():
            yield AllOf(ctx.env, [proc, consumer_proc])

        ctx.env.run(until=ctx.env.process(driver()))
        return consumed

    def test_pipeline_fetches_every_needed_expert_once(self):
        ctx = make_context(features=JanusFeatures(topology_aware=False))
        consumed = self.run_pipeline(ctx, rank=0)
        assert sorted(consumed) == ctx.needed_experts(1, 0)
        assert len(consumed) == len(set(consumed))

    def test_internal_experts_arrive_before_external_without_peer(self):
        """The two-stage order: stage-1 NVLink pulls precede stage-2
        copies in the pipeline's issue order."""
        ctx = make_context(features=JanusFeatures(topology_aware=False))
        consumed = self.run_pipeline(ctx, rank=0)
        internal = set(ctx.needed_internal(1, 0))
        first_chunk = consumed[: len(internal)]
        assert set(first_chunk) == internal

    def test_credits_never_exceed_capacity(self):
        ctx = make_context(
            features=JanusFeatures(credit_size=2, topology_aware=False)
        )
        self.run_pipeline(ctx, rank=0)
        assert 0 <= ctx.credits[0].level <= 2

    def test_peer_rank_for_odd_machine_sizes(self):
        ctx = make_context(gpus=2)
        scheduler = IntraNodeScheduler(ctx, 0)
        assert scheduler.peer_rank == 1
        scheduler1 = IntraNodeScheduler(ctx, 1)
        assert scheduler1.peer_rank == 0

    @pytest.mark.parametrize("hierarchical", [True, False])
    def test_backward_restages_every_forward_pull_from_host(
        self, hierarchical, monkeypatch
    ):
        """The backward sweep re-stages each expert the forward pulled,
        once, host-to-GPU and tagged ``pull-backward`` — the cached
        external experts of a hierarchical iteration included."""
        flows = []
        transfer = Fabric.transfer

        def spy(self, src, dst, size, nic_index=None, tag=None):
            flows.append((src, dst, tag))
            return transfer(self, src, dst, size, nic_index, tag)

        monkeypatch.setattr(Fabric, "transfer", spy)
        config = moe_gpt(16)
        cluster = Cluster(2)
        engine_for(
            "data-centric", config, cluster,
            workload=build_workload(config, cluster),
            features=JanusFeatures(hierarchical=hierarchical),
        ).run_iteration()
        forward = {"pull-internal", "pull-peer", "pull-pcie", "pull-direct"}
        pulled = sorted(tag[1:] for _, _, tag in flows if tag[0] in forward)
        restaged = [(src, dst, tag) for src, dst, tag in flows
                    if tag[0] == "pull-backward"]
        assert sorted(tag[1:] for _, _, tag in restaged) == pulled
        assert all(src.kind == "host" and dst.kind == "gpu"
                   for src, dst, _ in restaged)
        # Every host-to-GPU pull-pcie copy belongs to the forward sweep.
        pcie = [tag[1:] for _, _, tag in flows if tag[0] == "pull-pcie"]
        assert len(pcie) == len(set(pcie))


class TestInterScheduler:
    def run_fetch(self, ctx, machine):
        inter = InterNodeScheduler(ctx, machine)
        chains = [ctx.env.process(chain) for chain in inter.fetch_pipelines()]
        start_iteration(ctx)

        def driver():
            yield AllOf(ctx.env, chains)

        ctx.env.run(until=ctx.env.process(driver()))
        return inter

    def test_fills_cache_for_every_external_expert(self):
        ctx = make_context()
        self.run_fetch(ctx, machine=0)
        for expert in ctx.machine_external_experts(1, 0):
            assert ctx.cached_event(1, 0, expert).triggered
        assert ctx.cache_fills[0] == 4

    def test_cross_node_bytes_match_one_pull_per_expert(self):
        ctx = make_context()
        self.run_fetch(ctx, machine=0)
        expected = 4 * ctx.workload.expert_bytes
        assert ctx.fabric.nic_bytes(1, "out") == pytest.approx(expected)

    def test_fetch_is_request_then_socket_then_payload(self):
        """Each pull is the §6 sequence: a zero-byte request to the home
        machine, the socket overhead, then the payload back over RDMA.
        Each leg crosses two NIC links."""
        ctx = make_context()
        self.run_fetch(ctx, machine=0)
        spec = ctx.fabric.cluster.spec
        nic = spec.nic
        expected = (
            4 * nic.latency + spec.socket_overhead
            + ctx.workload.expert_bytes / nic.bandwidth
        )
        spans = ctx.trace.spans_of("comm.fetch")
        assert len(spans) == 4
        for span in spans:
            assert span.duration == pytest.approx(expected, rel=1e-9)

    def test_fetch_chain_pulls_back_to_back(self):
        """One chain keeps one pull in flight: with a single NIC the next
        request leaves the instant the previous payload lands."""
        ctx = make_context()
        self.run_fetch(ctx, machine=0)
        spans = ctx.trace.spans_of("comm.fetch")
        assert {span.detail.split()[1] for span in spans} == {"nic=0"}
        for before, after in zip(spans, spans[1:]):
            assert after.start == before.end

    def test_chains_split_work_across_nics(self):
        ctx = make_context(gpus=4, num_experts=16)  # 8 external experts
        inter = InterNodeScheduler(ctx, 0)
        chains = inter.fetch_pipelines()
        # A 4-GPU MachineSpec has 2 NICs -> at most 2 chains.
        assert 1 <= len(chains) <= ctx.fabric.cluster.spec.num_nics

    def test_topology_aware_order_staggers_source_machines(self):
        ctx = make_context(
            machines=3, num_experts=12,
            features=JanusFeatures(topology_aware=True),
        )
        # On machine 0, externals come from machines 1 and 2; the staggered
        # order visits machine (0+1)%3=1 first.
        inter = InterNodeScheduler(ctx, 0)
        order = inter._external_order(1)
        placement = ctx.placements[1]
        machines = [
            ctx.layout.machine_of(placement.owner(expert)) for expert in order
        ]
        assert machines[0] == 1
        # And the non-staggered order is plain ascending expert id.
        ctx2 = make_context(
            machines=3, num_experts=12,
            features=JanusFeatures(topology_aware=False),
        )
        inter2 = InterNodeScheduler(ctx2, 0)
        assert inter2._external_order(1) == sorted(inter2._external_order(1))

    def test_grad_collectors_wait_for_all_contributors(self):
        ctx = make_context()
        inter = InterNodeScheduler(ctx, 0)
        collectors = [ctx.env.process(c) for c in inter.grad_collectors()]
        start_iteration(ctx)

        # Nothing completes until every contributing worker reports.
        ctx.env.run(until=1.0)
        assert not any(proc.triggered for proc in collectors)

        for expert in ctx.machine_external_experts(1, 0):
            for rank in ctx.layout.ranks_of_machine(0):
                if expert in ctx.needed_external(1, rank):
                    ctx.grad_contrib_store(1, 0, expert).put(1)

        def driver():
            yield AllOf(ctx.env, collectors)

        ctx.env.run(until=ctx.env.process(driver()))
        assert all(proc.triggered for proc in collectors)
        # One pre-reduced payload per external expert left the machine.
        assert ctx.fabric.nic_bytes(0, "out") == pytest.approx(
            4 * ctx.workload.expert_bytes
        )
