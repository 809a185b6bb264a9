"""Tests for the post-run harvest (collect) and report layers."""

import numpy as np
import pytest

from repro.cluster import LinkId
from repro.core import engine_for
from repro.faults import FaultPlan, MessageLoss
from repro.metrics import (
    MetricsRegistry,
    build_run_report,
    busy_kpis,
    collect_iteration_metrics,
    iteration_summary,
    task_kind_breakdown,
    write_run_report,
)
from repro.metrics.collect import _link_label
from repro.trace import TraceRecorder

from tests.conftest import small_cluster, small_config


class TestLinkLabels:
    def test_tuple_ids_join_with_colons(self):
        assert _link_label(("nvlink", 0, 1)) == "nvlink:0:1"

    def test_plain_ids_stringify(self):
        assert _link_label("pcie-up") == "pcie-up"
        assert _link_label(7) == "7"

    def test_link_ids_keep_their_own_label(self):
        # A LinkId is a tuple, yet it must not be joined as nic:0:1:out.
        link_id = LinkId("nic", 0, 1, "out")
        assert _link_label(link_id) == str(link_id) == "nic[0.1].out"


class TestOverlapEfficiency:
    def test_zero_when_either_side_idle(self):
        trace = TraceRecorder()
        trace.record("compute.dense", 0, 1)
        assert busy_kpis(trace)[2] == 0.0  # no comm at all

    def test_full_overlap_is_one(self):
        trace = TraceRecorder()
        trace.record("compute.dense", 0, 4)
        trace.record("comm.a2a", 1, 2)
        assert busy_kpis(trace)[2] == 1.0

    def test_no_overlap_is_zero(self):
        trace = TraceRecorder()
        trace.record("compute.dense", 0, 1)
        trace.record("comm.a2a", 1, 2)
        assert busy_kpis(trace)[2] == 0.0


class _Stub:
    def __init__(self, **attrs):
        self.__dict__.update(attrs)


class TestHarvestEdgeCases:
    def test_idle_links_are_skipped(self):
        """Links that moved zero bytes produce no counter series."""
        registry = MetricsRegistry()
        trace = TraceRecorder()
        result = _Stub(
            trace=trace, iteration=0, seconds=1.0, all_to_all_share=0.0,
            strategies={}, fault_stats=None,
        )
        network = _Stub(
            link_bytes=_Stub(items=lambda: [(("idle", 0), 0.0)]),
            link_utilization=lambda link_id, elapsed: 0.0,
        )
        fabric = _Stub(
            network=network,
            cluster=_Stub(num_machines=1),
            nic_bytes=lambda machine, direction: 0.0,
        )
        ctx = _Stub(
            features=_Stub(credit_size=4),
            credits={},
            cache_fills={0: 0},
            env=_Stub(events_processed=0, processes_started=0),
        )
        collect_iteration_metrics(registry, result, fabric, ctx)
        assert registry.series("link.bytes") == {}
        assert registry.series("cache.fills") == {}
        assert registry.gauge("iter.seconds", iteration=0) == 1.0


class TestFaultMetrics:
    def _run_with_faults(self):
        registry = MetricsRegistry()
        plan = FaultPlan(
            seed=3, faults=(MessageLoss(kinds=("pull-request",), rate=0.4),)
        )
        engine = engine_for(
            "data-centric", small_config(), small_cluster(),
            rng=np.random.default_rng(0), imbalance=0.3,
            fault_plan=plan, metrics=registry,
        )
        return registry, engine.run_iteration()

    def test_fault_counters_mirror_fault_stats(self):
        registry, result = self._run_with_faults()
        stats = result.fault_stats
        assert stats is not None
        assert registry.total("fault.retries") == stats.retries
        assert registry.total("fault.dropped_messages") == stats.dropped_messages
        assert registry.total("fault.stale_fallbacks") == stats.stale_fallbacks
        assert registry.total("fault.grad_failures") == stats.grad_failures
        assert stats.dropped_messages > 0  # the plan actually fired

    def test_iteration_summary_includes_faults(self):
        _, result = self._run_with_faults()
        summary = iteration_summary(result)
        assert summary["faults"]["dropped_messages"] > 0
        assert summary["faults"]["retries"] == result.fault_stats.retries


class TestTaskKindBreakdown:
    def test_folds_count_and_seconds_by_kind_sorted(self):
        registry = MetricsRegistry()
        registry.inc("task.count", 3.0, kind="gate")
        registry.inc("task.seconds", 0.5, kind="gate")
        registry.inc("task.count", 1.0, kind="a2a-chunk")
        assert task_kind_breakdown(registry) == {
            "a2a-chunk": {"count": 1.0, "seconds": 0.0},
            "gate": {"count": 3.0, "seconds": 0.5},
        }

    def test_empty_registry_gives_empty_breakdown(self):
        registry = MetricsRegistry()
        assert task_kind_breakdown(registry) == {}
        report = build_run_report([], registry)
        assert "tasks" not in report

    def test_taskgraph_run_reports_task_section(self):
        registry = MetricsRegistry()
        engine = engine_for(
            "expert-centric", small_config(), small_cluster(),
            rng=np.random.default_rng(0), imbalance=0.3, metrics=registry,
        )
        report = build_run_report([engine.run_iteration()], registry)
        tasks = report["tasks"]
        assert tasks["expert-compute"]["count"] > 0
        assert tasks["expert-compute"]["seconds"] > 0
        assert all(entry["count"] > 0 for entry in tasks.values())


class TestRunReportIO:
    def test_write_run_report_round_trips(self, tmp_path):
        import json

        registry = MetricsRegistry()
        engine = engine_for(
            "data-centric", small_config(), small_cluster(),
            rng=np.random.default_rng(0), imbalance=0.3, metrics=registry,
        )
        report = build_run_report(
            [engine.run_iteration()], registry, model="small"
        )
        path = tmp_path / "report.json"
        write_run_report(path, report)
        loaded = json.loads(path.read_text())
        # JSON round-trip loses only numpy scalar types, not values.
        assert loaded == json.loads(json.dumps(report))
        assert loaded["run"] == {"model": "small"}
        assert loaded["iterations"][0]["seconds"] == pytest.approx(
            report["iterations"][0]["seconds"]
        )
