"""Tests for the weak-scaling benchmark suite (``repro.bench.scale``).

Wall-clock numbers are host-dependent, so the gates are exercised on
synthetic captures: the host-independent per-event growth law, the
median gate, and the calibration-rescaled top-point iteration budget.
One live smoke run covers the timing path end to end at a tiny fleet
size.
"""

import json

import pytest

from repro.bench import SUITES, format_capture
from repro.bench.scale import (
    MAX_PER_EVENT_GROWTH,
    SCALE_FULL_CONFIGS,
    SCALE_QUICK_CONFIGS,
    SCALE_SCHEMA,
    TOP_ITERATION_BUDGET_S,
    ScaleBenchConfig,
    check_scale_structure,
    time_scale_config,
)

SCALE = SUITES["scale"]


def _entry(machines, per_event_us, events=10_000, iterations=1):
    median = per_event_us * 1e-6 * events
    return {
        "machines": machines,
        "experts": machines * 8,
        "iterations": iterations,
        "median_s": median,
        "best_s": median,
        "samples": [median],
        "sim_seconds": 0.1,
        "events": events,
        "events_total": events * iterations,
        "per_event_us": per_event_us,
    }


def _capture(per_event=(5.0, 5.5, 6.0), machines=(8, 32, 128),
             calibration_s=0.020):
    events = {8: 12_000, 16: 29_000, 32: 75_000, 64: 215_000, 128: 692_000}
    return {
        "schema": SCALE_SCHEMA,
        "calibration_s": calibration_s,
        "host": {"python": "3.x", "numpy": "2.x", "cpus": 4},
        "runs": {
            f"MoE-GPT/expert-centric/{m}m": _entry(
                m, us, events=events.get(m, 10_000)
            )
            for m, us in zip(machines, per_event)
        },
    }


class TestConfigs:
    def test_key_includes_machines(self):
        assert ScaleBenchConfig(machines=64).key == (
            "MoE-GPT/expert-centric/64m"
        )

    def test_experts_scale_with_machines(self):
        assert ScaleBenchConfig(machines=128).experts == 1024

    def test_full_sweep_spans_8_to_128(self):
        machines = [spec.machines for spec in SCALE_FULL_CONFIGS]
        assert machines == sorted(machines)
        assert machines[0] == 8
        assert machines[-1] == 128

    def test_top_point_crosses_a_million_events(self):
        top = SCALE_FULL_CONFIGS[-1]
        # ~692k events per 128-machine iteration; two iterations per
        # timed sample put the capture past 1M simulated events.
        assert top.iterations >= 2

    def test_quick_configs_are_a_subset_of_full_keys(self):
        full = {spec.key for spec in SCALE_FULL_CONFIGS}
        assert {spec.key for spec in SCALE_QUICK_CONFIGS} <= full


class TestStructureGate:
    def test_flat_scaling_passes(self):
        assert check_scale_structure(_capture()) == []

    def test_growth_at_the_bound_passes(self):
        capture = _capture(per_event=(5.0, 5.5, 5.0 * MAX_PER_EVENT_GROWTH))
        assert check_scale_structure(capture) == []

    def test_superlinear_growth_fails(self):
        capture = _capture(per_event=(5.0, 6.0, 8.0))
        problems = check_scale_structure(capture)
        assert len(problems) == 1
        assert "1.60x" in problems[0]

    def test_endpoints_are_smallest_and_largest_fleet(self):
        # A pathological middle point must not trip the endpoint law.
        capture = _capture(per_event=(5.0, 50.0, 6.0))
        assert check_scale_structure(capture) == []

    def test_single_point_is_rejected(self):
        capture = _capture(per_event=(5.0,), machines=(8,))
        assert check_scale_structure(capture)

    def test_narrow_span_skips_the_growth_law(self):
        # 8 -> 16 machines is the quick CI subset: adjacent sub-second
        # points differ by scheduler noise, not scaling structure, so
        # even a wild ratio must not gate until the span reaches 4x.
        capture = _capture(per_event=(5.0, 10.0), machines=(8, 16))
        assert check_scale_structure(capture) == []
        capture = _capture(per_event=(5.0, 10.0), machines=(8, 32))
        assert check_scale_structure(capture)


class TestSnapshotGate:
    def test_identical_capture_passes(self):
        capture = _capture()
        assert SCALE.check(capture, capture) == []

    def test_regressed_median_fails(self):
        snapshot = _capture()
        current = _capture(per_event=(9.0, 9.9, 10.8))
        problems = SCALE.check(current, snapshot, tolerance=0.25)
        assert any("s/iter" in p for p in problems)

    def test_calibration_rescale_absorbs_a_slow_host(self):
        snapshot = _capture(calibration_s=0.020)
        # Host is 1.8x slower and the medians are 1.8x slower: fine.
        current = _capture(
            per_event=(9.0, 9.9, 10.8), calibration_s=0.036
        )
        assert SCALE.check(current, snapshot, tolerance=0.25) == []

    def test_missing_key_is_reported(self):
        snapshot = _capture(machines=(8, 32), per_event=(5.0, 5.5))
        current = _capture()
        problems = SCALE.check(current, snapshot)
        assert any("not in committed snapshot" in p for p in problems)

    def test_top_point_budget_fails_when_blown(self):
        capture = _capture()
        slow = 2 * TOP_ITERATION_BUDGET_S * 1e6 / 692_000  # us/event
        current = _capture(per_event=(5.0, 5.5, slow))
        # Inflate tolerance so only the absolute budget can trip.
        problems = SCALE.check(current, capture, tolerance=100.0)
        assert any("budget" in p for p in problems)


class TestCommittedSnapshot:
    def test_snapshot_exists_and_is_committed(self):
        assert SCALE.snapshot.exists()
        snapshot = json.loads(SCALE.snapshot.read_text())
        assert snapshot["schema"] == SCALE_SCHEMA
        assert len(snapshot["runs"]) == len(SCALE_FULL_CONFIGS)

    def test_committed_snapshot_passes_its_own_gates(self):
        snapshot = json.loads(SCALE.snapshot.read_text())
        assert check_scale_structure(snapshot) == []
        assert SCALE.check(snapshot, snapshot) == []

    def test_committed_top_point_crosses_a_million_events(self):
        snapshot = json.loads(SCALE.snapshot.read_text())
        top = max(
            snapshot["runs"].values(), key=lambda entry: entry["machines"]
        )
        assert top["machines"] == 128
        assert top["events_total"] >= 1_000_000


class TestLiveSmoke:
    def test_time_scale_config_smoke(self):
        entry = time_scale_config(ScaleBenchConfig(machines=2), runs=1)
        assert entry["machines"] == 2
        assert entry["experts"] == 16
        assert entry["events"] > 0
        assert entry["per_event_us"] > 0
        assert entry["median_s"] == pytest.approx(entry["best_s"])

    def test_format_suite_renders_growth_column(self):
        table = format_capture(SCALE, _capture())
        assert "us/event" in table
        assert "1.00x" in table
        assert "128" in table
