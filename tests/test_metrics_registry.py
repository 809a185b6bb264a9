"""Unit tests for the metric primitives (counters, gauges, histograms)."""

import pytest

from repro.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry

from tests.helpers import histogram


class TestHistogram:
    def test_observe_tracks_count_sum_min_max(self):
        hist = Histogram()
        for value in (1e-5, 2e-5, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(3.00003)
        assert hist.min == 1e-5
        assert hist.max == 3.0
        assert hist.mean == pytest.approx(1.00001)

    def test_mean_of_empty_histogram_is_zero(self):
        assert Histogram().mean == 0.0

    def test_bucket_assignment_uses_upper_bounds(self):
        hist = Histogram(bounds=(1.0, 10.0))
        hist.observe(0.5)   # <= 1.0
        hist.observe(1.0)   # <= 1.0 (inclusive)
        hist.observe(5.0)   # <= 10.0
        hist.observe(50.0)  # overflow
        assert hist.bucket_counts == [2, 1, 1]

    def test_default_bounds_are_log_spaced(self):
        assert DEFAULT_BUCKETS[0] == 1e-6
        assert DEFAULT_BUCKETS[-1] == 100.0
        ratios = [
            DEFAULT_BUCKETS[i + 1] / DEFAULT_BUCKETS[i]
            for i in range(len(DEFAULT_BUCKETS) - 1)
        ]
        assert all(ratio == pytest.approx(10.0) for ratio in ratios)

    def test_as_dict_shape(self):
        hist = Histogram(bounds=(1.0,))
        hist.observe(0.5)
        hist.observe(2.0)
        snapshot = hist.as_dict()
        assert snapshot["count"] == 2
        assert snapshot["sum"] == 2.5
        assert snapshot["min"] == 0.5
        assert snapshot["max"] == 2.0
        assert snapshot["mean"] == 1.25
        assert snapshot["buckets"] == {"1.0": 1}
        assert snapshot["overflow"] == 1


class TestCounters:
    def test_inc_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        registry.inc("pull.issued", kind="internal")
        registry.inc("pull.issued", kind="internal")
        registry.inc("pull.issued", kind="pcie")
        assert registry.counter("pull.issued", kind="internal") == 2.0
        assert registry.counter("pull.issued", kind="pcie") == 1.0
        assert registry.total("pull.issued") == 3.0

    def test_inc_with_explicit_value(self):
        registry = MetricsRegistry()
        registry.inc("link.bytes", 1024.0, link="nvlink")
        registry.inc("link.bytes", 512.0, link="nvlink")
        assert registry.counter("link.bytes", link="nvlink") == 1536.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().inc("pull.issued", -1.0)

    def test_missing_counter_reads_zero(self):
        registry = MetricsRegistry()
        assert registry.counter("nope") == 0.0
        assert registry.total("nope") == 0.0
        assert registry.series("nope") == {}

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.inc("x", a=1, b=2)
        registry.inc("x", b=2, a=1)
        assert registry.counter("x", a=1, b=2) == 2.0


class TestGaugesAndHistograms:
    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set("iter.seconds", 1.0, iteration=0)
        registry.set("iter.seconds", 2.0, iteration=0)
        assert registry.gauge("iter.seconds", iteration=0) == 2.0
        assert registry.gauge_series("iter.seconds") == {
            (("iteration", 0),): 2.0
        }

    def test_missing_gauge_is_none(self):
        assert MetricsRegistry().gauge("nope") is None

    def test_observe_builds_histogram_per_label_set(self):
        registry = MetricsRegistry()
        registry.observe("pull.latency_s", 1e-4, kind="internal")
        registry.observe("pull.latency_s", 2e-4, kind="internal")
        registry.observe("pull.latency_s", 5.0, kind="pcie")
        internal = histogram(registry, "pull.latency_s", kind="internal")
        assert internal.count == 2
        assert histogram(registry, "pull.latency_s", kind="pcie").count == 1

    def test_missing_histogram_is_none(self):
        assert histogram(MetricsRegistry(), "nope") is None


class TestExport:
    def test_names_are_sorted(self):
        registry = MetricsRegistry()
        registry.inc("b.second")
        registry.inc("a.first")
        registry.set("z.gauge", 0.0)
        registry.observe("m.hist", 1.0)
        assert registry.counter_names() == ["a.first", "b.second"]
        snapshot = registry.as_dict()
        assert list(snapshot["counters"]) == ["a.first", "b.second"]
        assert list(snapshot["gauges"]) == ["z.gauge"]
        assert list(snapshot["histograms"]) == ["m.hist"]

    def test_as_dict_round_trips_to_json(self):
        import json

        registry = MetricsRegistry()
        registry.inc("pull.issued", kind="internal")
        registry.inc("cache.requests")
        registry.set("iter.seconds", 0.5, iteration=0)
        registry.observe("pull.latency_s", 1e-3)
        snapshot = json.loads(json.dumps(registry.as_dict()))
        assert snapshot["counters"]["pull.issued"] == {"kind=internal": 1.0}
        assert snapshot["counters"]["cache.requests"] == {"": 1.0}
        assert snapshot["gauges"]["iter.seconds"] == {"iteration=0": 0.5}
        assert snapshot["histograms"]["pull.latency_s"][""]["count"] == 1

    def test_label_text_formats_pairs(self):
        assert MetricsRegistry._label_text(()) == ""
        assert (
            MetricsRegistry._label_text((("a", 1), ("b", "x")))
            == "a=1,b=x"
        )
