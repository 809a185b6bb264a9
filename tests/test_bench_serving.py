"""Tests for the serving benchmark suite (``repro.bench.serving``).

Wall-clock numbers are host-dependent, so the gate layers are exercised
on synthetic captures: the structural win (disaggregated p99 TPOT beats
unified on the skewed trace), completeness, the calibration-rescaled wall
gate, and the digest pin with its NumPy-version and request-count guards.
One live smoke run covers the capture path end to end.
"""

import numpy as np

from repro.bench import SUITES, capture, format_capture
from repro.bench.serving import (
    SERVING_FULL_CONFIGS,
    SERVING_QUICK_CONFIGS,
    SERVING_SCHEMA,
    ServingBenchConfig,
    check_serving_wins,
    time_serving_config,
)

SERVING = SUITES["serving"]


def _entry(tpot_p99, median_s=0.5, requests=8000,
           digest="d" * 64, completed=True):
    return {
        "median_s": median_s,
        "best_s": median_s,
        "samples": [median_s],
        "events": 100_000,
        "events_per_s": 100_000 / median_s,
        "requests": requests,
        "completed_ok": completed,
        "makespan_s": 3.0,
        "ttft_p50_ms": 0.2,
        "ttft_p99_ms": 0.9,
        "tpot_p50_ms": 0.2,
        "tpot_p99_ms": tpot_p99,
        "slo_attainment": 1.0,
        "goodput_rps": requests / 3.0,
        "nic_gb": 1.0,
        "paradigms": {"decode": "expert-centric"},
        "digest": digest,
    }


def _capture(unified_tpot=1.4, disagg_tpot=1.0, calibration_s=0.020,
             numpy_version=None, **entry_kwargs):
    return {
        "schema": SERVING_SCHEMA,
        "calibration_s": calibration_s,
        "host": {
            "python": "3.x",
            "numpy": numpy_version or np.__version__,
        },
        "runs": {
            "skewed/unified": _entry(unified_tpot, **entry_kwargs),
            "skewed/disaggregated": _entry(disagg_tpot, **entry_kwargs),
        },
    }


class TestKeys:
    def test_key_is_trace_slash_topology(self):
        assert ServingBenchConfig(
            "skewed", "disaggregated", 50_000
        ).key == "skewed/disaggregated"

    def test_quick_configs_are_a_subset_of_full_keys(self):
        full = {spec.key for spec in SERVING_FULL_CONFIGS}
        assert {spec.key for spec in SERVING_QUICK_CONFIGS} <= full

    def test_full_suite_contains_the_structural_pair(self):
        keys = {spec.key for spec in SERVING_FULL_CONFIGS}
        assert {"skewed/unified", "skewed/disaggregated"} <= keys


class TestStructuralWins:
    def test_pass_when_disaggregation_wins(self):
        assert check_serving_wins(_capture()) == []

    def test_flagged_when_disaggregation_loses(self):
        problems = check_serving_wins(
            _capture(unified_tpot=1.0, disagg_tpot=1.4)
        )
        assert len(problems) == 1
        assert "does not beat" in problems[0]

    def test_flagged_when_requests_go_unserved(self):
        capture = _capture()
        capture["runs"]["skewed/unified"]["completed_ok"] = False
        problems = check_serving_wins(capture)
        assert any("not every offered request completed" in p
                   for p in problems)

    def test_missing_pair_is_flagged(self):
        capture = _capture()
        del capture["runs"]["skewed/disaggregated"]
        problems = check_serving_wins(capture)
        assert any("missing the skewed" in p for p in problems)


class TestSnapshotGate:
    def test_pass_at_parity(self):
        snap = _capture()
        assert SERVING.check(_capture(), snap) == []

    def test_wall_regression_is_flagged(self):
        snap = _capture()
        current = _capture(median_s=2.5)
        problems = SERVING.check(current, snap, tolerance=0.25)
        assert any("median" in p for p in problems)

    def test_digest_mismatch_flagged_under_same_numpy(self):
        snap = _capture()
        current = _capture(digest="e" * 64)
        problems = SERVING.check(current, snap)
        assert any("bit-reproducible" in p for p in problems)

    def test_digest_skipped_across_numpy_versions(self):
        snap = _capture(numpy_version="0.0.1")
        current = _capture(digest="e" * 64)
        assert SERVING.check(current, snap) == []

    def test_digest_skipped_when_request_counts_differ(self):
        # --quick replays shorter traces under the same keys.
        snap = _capture(requests=50_000)
        current = _capture(requests=8_000, digest="e" * 64)
        assert SERVING.check(current, snap) == []


class TestLiveCapture:
    def test_tiny_suite_runs_and_formats(self):
        spec = ServingBenchConfig("skewed", "unified", 400)
        current = capture(SERVING, [spec], runs=1, calibration=0.020)
        assert current["schema"] == SERVING_SCHEMA
        assert current["config"]["machines"] == 4
        assert "requests=400" in current["config"]["traces"]["skewed"]
        entry = current["runs"][spec.key]
        assert entry["completed_ok"] is True
        assert entry["requests"] == 400
        assert entry["events"] > 0
        assert len(entry["digest"]) == 64
        text = format_capture(SERVING, current)
        assert "skewed/unified" in text
        assert "calibration" in text

    def test_timed_runs_report_identical_simulated_facts(self):
        spec = ServingBenchConfig("skewed", "disaggregated", 300)
        first = time_serving_config(spec, runs=1)
        second = time_serving_config(spec, runs=2)
        assert first["digest"] == second["digest"]
        assert first["tpot_p99_ms"] == second["tpot_p99_ms"]
        assert len(second["samples"]) == 2
