"""Golden-metrics regression: exact counter values for seeded runs.

The engine is deterministic, so every metric the registry collects for a
fixed (config, cluster, seed) is an exact constant.  These tests pin the
counters the same way ``TestGoldenRegression`` pins iteration times: any
change to scheduler behaviour, traffic accounting or the instrumentation
itself shows up as an exact-value diff here.

Also locks the headline guarantee: attaching a registry (and a shared
trace recorder) never changes simulated times — bit-identical, not
approximately equal.
"""

import numpy as np
import pytest

from repro.core import engine_for
from repro.metrics import MetricsRegistry
from repro.trace import TraceRecorder

from tests.conftest import small_cluster, small_config
from tests.helpers import histogram

EXPERT_BYTES = 131072.0  # hidden_dim=64 -> 2 * H * 4H * 4 bytes


def run_with_metrics(mode, iterations=1, trace=None):
    registry = MetricsRegistry()
    engine = engine_for(
        mode, small_config(), small_cluster(),
        rng=np.random.default_rng(0), imbalance=0.3,
        metrics=registry, trace=trace,
    )
    results = engine.run(iterations)
    return registry, results


def run_plain(mode, iterations=1):
    engine = engine_for(
        mode, small_config(), small_cluster(),
        rng=np.random.default_rng(0), imbalance=0.3,
    )
    return engine.run(iterations)


class TestBitIdenticalTimes:
    @pytest.mark.parametrize(
        "mode", ["expert-centric", "data-centric", "unified", "pipelined-ec"]
    )
    def test_metrics_never_change_simulated_time(self, mode):
        plain = run_plain(mode, iterations=2)
        _, instrumented = run_with_metrics(
            mode, iterations=2, trace=TraceRecorder()
        )
        for a, b in zip(plain, instrumented):
            assert a.seconds == b.seconds  # exact, not approx
            np.testing.assert_array_equal(
                a.nic_egress_bytes, b.nic_egress_bytes
            )


class TestGoldenCountersDataCentric:
    def test_pull_counters(self):
        registry, _ = run_with_metrics("data-centric")
        assert registry.counter("pull.issued", kind="internal") == 8.0
        assert registry.counter("pull.issued", kind="pcie") == 8.0
        assert registry.counter("pull.issued", kind="peer") == 8.0
        assert registry.counter("pull.issued", kind="backward") == 24.0
        assert registry.total("pull.issued") == 48.0
        assert histogram(registry, "pull.latency_s", kind="internal").count == 8

    def test_cache_manager_counters(self):
        registry, _ = run_with_metrics("data-centric")
        assert registry.total("cache.requests") == 16.0
        assert registry.total("cache.hits") == 8.0
        assert registry.total("cache.misses") == 8.0
        # Every miss is one cross-machine fill by the Inter-Node Scheduler.
        assert registry.total("fetch.issued") == 8.0
        assert registry.total("cache.fills") == 8.0
        assert registry.counter("cache.fills", machine=0) == 4.0
        assert registry.counter("cache.fills", machine=1) == 4.0
        # Each hit saved one expert payload over the NICs.
        assert registry.total("cache.dedup_bytes_saved") == 8 * EXPERT_BYTES

    def test_egress_bytes_per_machine(self):
        registry, results = run_with_metrics("data-centric")
        for machine in (0, 1):
            assert registry.counter(
                "machine.egress_bytes", machine=machine
            ) == results[0].nic_egress_bytes[machine]
        # fwd: 8 fills; bwd: 8 pre-reduced gradient pushes.
        assert registry.total("machine.egress_bytes") == pytest.approx(
            16 * EXPERT_BYTES
        )

    def test_kernel_and_credit_gauges(self):
        registry, _ = run_with_metrics("data-centric")
        assert registry.gauge("sim.events_processed", iteration=0) == 1120.0
        assert registry.gauge("sim.processes_started", iteration=0) == 135.0
        for rank in range(4):
            assert registry.gauge(
                "credit.max_occupancy", rank=rank, iteration=0
            ) == 3.0
            assert registry.gauge(
                "credit.final_level", rank=rank, iteration=0
            ) == 16.0

    def test_strategy_decisions(self):
        registry, _ = run_with_metrics("data-centric")
        for block in (1, 3):
            assert registry.counter(
                "block.strategy", block=block, strategy="data-centric"
            ) == 1.0


class TestGoldenCountersExpertCentric:
    def test_no_pull_machinery_is_touched(self):
        registry, _ = run_with_metrics("expert-centric")
        assert registry.total("pull.issued") == 0.0
        assert registry.total("cache.requests") == 0.0
        assert registry.total("fetch.issued") == 0.0
        assert registry.total("cache.fills") == 0.0

    def test_a2a_traffic_and_kernel_counters(self):
        registry, _ = run_with_metrics("expert-centric")
        assert registry.counter(
            "machine.egress_bytes", machine=0
        ) == 2096128.0000000016
        assert registry.gauge("sim.events_processed", iteration=0) == 428.0
        assert registry.gauge("sim.processes_started", iteration=0) == 57.0
        # Synchronous All-to-All never draws a credit.
        for rank in range(4):
            assert registry.gauge(
                "credit.max_occupancy", rank=rank, iteration=0
            ) == 0.0

    def test_pipelined_ec_runs_more_processes(self):
        registry, _ = run_with_metrics("pipelined-ec")
        # 4 chunks per All-to-All -> far more kernel activity than plain EC.
        assert registry.gauge("sim.events_processed", iteration=0) == 1156.0
        assert registry.gauge("sim.processes_started", iteration=0) == 109.0
        for block in (1, 3):
            assert registry.counter(
                "block.strategy", block=block, strategy="pipelined-ec"
            ) == 1.0


class TestGoldenCountersUnified:
    def test_unified_selects_data_centric_here_and_matches_it(self):
        unified_registry, unified_results = run_with_metrics("unified")
        dc_registry, dc_results = run_with_metrics("data-centric")
        # R > 1 for both MoE blocks at this scale: unified == data-centric.
        assert unified_results[0].seconds == dc_results[0].seconds
        assert unified_registry.total("pull.issued") == 48.0
        assert unified_registry.total("cache.hits") == 8.0
        for block in (1, 3):
            assert unified_registry.counter(
                "block.strategy", block=block, strategy="data-centric"
            ) == 1.0


class TestMultiIterationAccumulation:
    def test_counters_accumulate_linearly(self):
        one, _ = run_with_metrics("data-centric", iterations=1)
        two, _ = run_with_metrics(
            "data-centric", iterations=2, trace=TraceRecorder()
        )
        for name in ("pull.issued", "cache.requests", "cache.hits",
                     "fetch.issued", "machine.egress_bytes"):
            assert two.total(name) == 2 * one.total(name)

    def test_per_iteration_gauges_are_scoped(self):
        registry, results = run_with_metrics(
            "data-centric", iterations=2, trace=TraceRecorder()
        )
        for iteration, result in enumerate(results):
            assert registry.gauge(
                "iter.seconds", iteration=iteration
            ) == result.seconds
        assert results[0].seconds == results[1].seconds
