"""Tests for the span/event trace recorder."""

import pytest

from repro.trace import Span, TraceRecorder
from tests.helpers import worker_busy_time


class TestSpan:
    def test_duration(self):
        span = Span("compute.dense", 1.0, 3.5)
        assert span.duration == 2.5

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Span("compute.dense", 3.0, 1.0)


class TestTraceRecorder:
    def test_record_and_query_by_prefix(self):
        trace = TraceRecorder()
        trace.record("compute.dense", 0, 1, worker=0)
        trace.record("compute.expert", 1, 2, worker=0)
        trace.record("comm.a2a", 0, 5, block=1)
        assert len(trace.spans_of("compute")) == 2
        assert len(trace.spans_of("comm.a2a")) == 1

    def test_busy_time_merges_overlaps(self):
        trace = TraceRecorder()
        trace.record("comm.a2a", 0, 2)
        trace.record("comm.a2a", 1, 4)
        trace.record("comm.a2a", 10, 12)
        assert trace.busy_time("comm.a2a") == 6  # [0,4] + [10,12]

    def test_busy_time_empty(self):
        assert TraceRecorder().busy_time("comm") == 0

    def test_busy_time_disjoint(self):
        trace = TraceRecorder()
        trace.record("x", 0, 1)
        trace.record("x", 5, 6)
        assert trace.busy_time("x") == 2

    def test_mark_and_events_of(self):
        trace = TraceRecorder()
        trace.mark("expert_ready", 1.5, worker=0, expert=3)
        trace.mark("block_complete", 2.0, worker=0, block=1)
        events = trace.events_of("expert_ready")
        assert len(events) == 1
        assert events[0]["expert"] == 3

    def test_block_completions_take_latest(self):
        trace = TraceRecorder()
        trace.mark("block_complete", 1.0, worker=0, block=0)
        trace.mark("block_complete", 2.0, worker=1, block=0)
        assert trace.block_completions() == {0: 2.0}
        assert trace.block_completions(worker=0) == {0: 1.0}

    def test_expert_arrivals_filter_by_worker(self):
        trace = TraceRecorder()
        trace.mark("expert_ready", 1.0, worker=0, expert=1)
        trace.mark("expert_ready", 2.0, worker=1, expert=1)
        assert len(trace.expert_arrivals()) == 2
        assert len(trace.expert_arrivals(worker=1)) == 1


class TestIterationScoping:
    """A recorder shared across iterations must never double-count."""

    def test_new_iteration_stamps_subsequent_records(self):
        trace = TraceRecorder()
        trace.record("comm.a2a", 0, 1)
        assert trace.new_iteration() == 1
        trace.record("comm.a2a", 0, 2)
        trace.mark("block_complete", 1.5, worker=0, block=0)
        assert [span.iteration for span in trace.spans] == [0, 1]
        assert trace.events[-1]["iteration"] == 1

    def test_queries_filter_by_iteration(self):
        trace = TraceRecorder()
        trace.record("comm.a2a", 0, 1)
        trace.new_iteration()
        trace.record("comm.a2a", 0, 2)
        assert trace.busy_time("comm.a2a", iteration=0) == 1
        assert trace.busy_time("comm.a2a", iteration=1) == 2
        assert len(trace.spans_of("comm.a2a", iteration=0)) == 1
        # Default scope still covers the whole recording.
        assert trace.busy_time("comm.a2a") == 2  # intervals overlap

    def test_events_and_completions_filter_by_iteration(self):
        trace = TraceRecorder()
        trace.mark("block_complete", 1.0, worker=0, block=0)
        trace.mark("expert_ready", 0.5, worker=0, expert=2)
        trace.new_iteration()
        trace.mark("block_complete", 2.0, worker=0, block=0)
        assert trace.block_completions(iteration=0) == {0: 1.0}
        assert trace.block_completions(iteration=1) == {0: 2.0}
        assert trace.block_completions() == {0: 2.0}
        assert len(trace.expert_arrivals(iteration=1)) == 0
        assert len(trace.expert_arrivals(iteration=0)) == 1

    def test_worker_busy_time_scopes(self):
        trace = TraceRecorder()
        trace.record("compute.dense", 0, 1, worker=0)
        trace.new_iteration()
        trace.record("compute.dense", 2, 4, worker=0)
        assert worker_busy_time(trace, 0, iteration=0) == 1
        assert worker_busy_time(trace, 0, iteration=1) == 2
        assert worker_busy_time(trace, 0) == 3

    def test_busy_union_merges_across_prefixes(self):
        trace = TraceRecorder()
        trace.record("comm.a2a", 0, 2)
        trace.record("compute.dense", 1, 3)
        assert trace.busy_union("comm.", "compute.") == 3
        assert trace.busy_union("comm.") == 2


class TestEngineSharedRecorder:
    """Engine-level regression: per-iteration queries on a shared recorder
    return the same numbers as per-iteration fresh recorders."""

    def test_shared_recorder_does_not_double_count(self):
        import numpy as np

        from repro.core import engine_for
        from tests.conftest import small_cluster, small_config

        def build(trace=None):
            return engine_for(
                "expert-centric", small_config(), small_cluster(),
                rng=np.random.default_rng(0), imbalance=0.3, trace=trace,
            )

        fresh = build().run(2)
        shared_trace = TraceRecorder()
        shared = build(shared_trace).run(2)

        assert [result.iteration for result in shared] == [0, 1]
        for fresh_result, shared_result in zip(fresh, shared):
            assert (
                shared_result.all_to_all_seconds
                == fresh_result.all_to_all_seconds
            )
        # The unscoped union is NOT the sum of iterations (spans overlap on
        # the simulated clock); the scoped queries are what Fig. 3 needs.
        per_iteration = [
            shared_trace.busy_time("comm.a2a", iteration=i) for i in (0, 1)
        ]
        assert per_iteration[0] == per_iteration[1] > 0
        assert shared_trace.busy_time("comm.a2a") < sum(per_iteration)
        assert shared_trace.block_completions(
            worker=0, iteration=0
        ) == shared_trace.block_completions(worker=0, iteration=1)
