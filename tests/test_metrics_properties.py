"""Property-based tests on the metrics subsystem and its invariants.

Two layers: pure registry/histogram properties driven by hypothesis, and
engine-level invariants (cache accounting, credit discipline, busy-time
bounds, Chrome-trace well-formedness) checked across a seeded sweep of
paradigms and workload shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine_for
from repro.metrics import (
    Histogram,
    MetricsRegistry,
    build_run_report,
    busy_kpis,
    chrome_trace,
)
from repro.trace import TraceRecorder

from tests.conftest import small_cluster, small_config
from tests.helpers import histogram, worker_busy_time

MODES = ("expert-centric", "data-centric", "unified", "pipelined-ec")


def run_instrumented(mode, seed=0, imbalance=0.3, iterations=1,
                     **config_overrides):
    """Run ``iterations`` iterations into one shared registry and
    recorder; returns them with the last iteration's result."""
    registry = MetricsRegistry()
    trace = TraceRecorder()
    config = small_config(**config_overrides)
    engine = engine_for(
        mode, config, small_cluster(),
        rng=np.random.default_rng(seed), imbalance=imbalance,
        metrics=registry, trace=trace,
    )
    return registry, trace, engine.run(iterations)[-1]


class TestHistogramProperties:
    @given(values=st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=60)
    def test_bucket_counts_partition_observations(self, values):
        hist = Histogram()
        for value in values:
            hist.observe(value)
        assert sum(hist.bucket_counts) == hist.count == len(values)
        assert hist.min == min(values)
        assert hist.max == max(values)
        assert hist.total == pytest.approx(sum(values))

    @given(values=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=40)
    def test_mean_within_min_max(self, values):
        hist = Histogram()
        for value in values:
            hist.observe(value)
        assert hist.min - 1e-12 <= hist.mean <= hist.max + 1e-12


class TestRegistryProperties:
    @given(increments=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.floats(min_value=0.0, max_value=1e3, allow_nan=False)),
        max_size=50,
    ))
    @settings(max_examples=50)
    def test_total_equals_sum_of_label_series(self, increments):
        registry = MetricsRegistry()
        expected = {}
        for label, value in increments:
            registry.inc("counter", value, kind=label)
            expected[label] = expected.get(label, 0.0) + value
        assert registry.total("counter") == pytest.approx(
            sum(expected.values())
        )
        for label, value in expected.items():
            assert registry.counter("counter", kind=label) == pytest.approx(
                value
            )


class TestEngineInvariants:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_cache_hits_plus_misses_equals_requests(self, mode, seed):
        registry, _, _ = run_instrumented(mode, seed=seed)
        requests = registry.total("cache.requests")
        hits = registry.total("cache.hits")
        misses = registry.total("cache.misses")
        assert hits + misses == requests
        # Fault-free: every miss is served by exactly one cross-machine
        # fill, and nothing else fills the cache.
        assert misses == registry.total("cache.fills")
        assert misses == registry.total("fetch.issued")

    @pytest.mark.parametrize("mode", MODES)
    def test_credit_occupancy_never_exceeds_capacity(self, mode):
        registry, _, result = run_instrumented(mode)
        capacity = result.features.credit_size
        for rank, min_level in result.credit_min_levels.items():
            assert 0 <= min_level <= capacity
            occupancy = registry.gauge(
                "credit.max_occupancy", rank=rank, iteration=0
            )
            assert 0 <= occupancy <= capacity
            assert occupancy == capacity - min_level

    @pytest.mark.parametrize("mode", MODES)
    def test_worker_busy_time_bounded_by_makespan(self, mode):
        _, trace, result = run_instrumented(mode)
        workers = {
            span.worker for span in trace.spans if span.worker is not None
        }
        assert workers  # the traced worker recorded something
        for worker in workers:
            busy = worker_busy_time(trace, worker, iteration=0)
            assert 0 <= busy <= result.seconds + 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_derived_kpis_are_normalized(self, mode):
        _, trace, result = run_instrumented(mode)
        comm, compute, efficiency = busy_kpis(trace, iteration=0)
        assert 0.0 <= efficiency <= 1.0 + 1e-9
        assert comm <= result.seconds + 1e-12
        assert compute <= result.seconds + 1e-12

    def test_histogram_latencies_are_non_negative(self):
        registry, _, result = run_instrumented("data-centric")
        for name in registry.as_dict()["histograms"]:
            for key in (
                (), (("kind", "internal"),), (("kind", "pcie"),),
                (("kind", "peer"),), (("kind", "backward"),),
            ):
                hist = histogram(registry, name, **dict(key))
                if hist is None:
                    continue
                assert hist.min >= 0.0
                assert hist.max <= result.seconds


REQUIRED_EVENT_KEYS = {"name", "ph", "ts", "pid", "tid"}
VALID_PHASES = {"X", "i", "C", "M"}


class TestChromeTraceWellFormed:
    @pytest.mark.parametrize("mode", MODES)
    def test_events_have_required_keys_and_sane_values(self, mode):
        registry, trace, result = run_instrumented(mode)
        document = chrome_trace(trace, registry)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events
        makespan_us = result.seconds * 1e6
        for event in events:
            assert REQUIRED_EVENT_KEYS <= set(event)
            assert event["ph"] in VALID_PHASES
            assert event["ts"] >= 0
            assert event["ts"] <= makespan_us + 1e-6
            assert event["pid"] == 0
            assert event["tid"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] + event["dur"] <= makespan_us + 1e-6
            if event["ph"] == "i":
                assert event["s"] in {"g", "p", "t"}

    def test_thread_metadata_covers_every_span_lane(self):
        for iterations in (1, 2):
            registry, trace, _ = run_instrumented(
                "data-centric", iterations=iterations
            )
            events = chrome_trace(trace, registry)["traceEvents"]
            named_lanes = {
                (event["pid"], event["tid"]) for event in events
                if event["ph"] == "M" and event["name"] == "thread_name"
            }
            named_pids = {
                event["pid"] for event in events
                if event["ph"] == "M" and event["name"] == "process_name"
            }
            used_lanes = {
                (event["pid"], event["tid"]) for event in events
                if event["ph"] != "M"
            }
            assert used_lanes <= named_lanes
            assert {pid for pid, _ in named_lanes} == named_pids
            assert named_pids == set(range(iterations))

    def test_each_iteration_is_its_own_process(self):
        # Every iteration's clock starts at zero: sharing one process
        # would draw iteration 1 on top of iteration 0.
        registry, trace, _ = run_instrumented("data-centric", iterations=2)
        events = chrome_trace(trace, registry, process_name="sim")[
            "traceEvents"
        ]
        for event in events:
            if event["ph"] in ("X", "i"):
                assert event["pid"] == event["args"]["iteration"]
        spans = [event for event in events if event["ph"] == "X"]
        assert {event["pid"] for event in spans} == {0, 1}
        for pid in (0, 1):
            assert sum(event["pid"] == pid for event in spans) == len(
                trace.spans_of("", iteration=pid)
            )
        names = {
            event["pid"]: event["args"]["name"] for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert names == {0: "sim iteration 0", 1: "sim iteration 1"}
        counters = [event for event in events if event["ph"] == "C"]
        assert counters and all(event["pid"] == 1 for event in counters)
        last_end = max(
            span.end for span in trace.spans if span.iteration == 1
        ) * 1e6
        assert all(event["ts"] <= last_end for event in counters)

    def test_counter_events_carry_registry_totals(self):
        registry, trace, _ = run_instrumented("data-centric")
        document = chrome_trace(trace, registry)
        counter_events = {
            event["name"]: event for event in document["traceEvents"]
            if event["ph"] == "C"
        }
        assert "pull.issued" in counter_events
        args = counter_events["pull.issued"]["args"]
        assert sum(args.values()) == registry.total("pull.issued")

    def test_json_serializable(self):
        import json

        registry, trace, _ = run_instrumented("unified")
        document = chrome_trace(trace, registry)
        assert json.loads(json.dumps(document)) == document


class TestRunReportProperties:
    def test_report_is_consistent_with_results(self):
        registry = MetricsRegistry()
        trace = TraceRecorder()
        engine = engine_for(
            "unified", small_config(), small_cluster(),
            rng=np.random.default_rng(0), imbalance=0.3,
            metrics=registry, trace=trace,
        )
        results = engine.run(3)
        report = build_run_report(results, registry, paradigm="unified")
        assert report["schema"].startswith("janus-repro/run-report/")
        assert len(report["iterations"]) == 3
        assert report["makespan_seconds"] == pytest.approx(
            sum(result.seconds for result in results)
        )
        for summary, result in zip(report["iterations"], results):
            assert summary["seconds"] == result.seconds
            assert summary["all_to_all_share"] <= 1.0
        assert report["run"] == {"paradigm": "unified"}
        assert "metrics" in report
