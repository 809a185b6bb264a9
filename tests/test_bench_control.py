"""Tests for the adaptive-control benchmark suite (``repro.bench.control``).

The structural gate — the adaptive run must beat every static paradigm in
total simulated time — is exercised on synthetic captures.
"""

from repro.bench import SUITES
from repro.bench.control import (
    CONTROL_FULL_CONFIGS,
    CONTROL_QUICK_CONFIGS,
    check_control_wins,
)

CONTROL = SUITES["control"]


def _entry(sim_seconds, median_s=1.0):
    return {
        "median_s": median_s,
        "best_s": median_s,
        "samples": [median_s],
        "sim_seconds": sim_seconds,
        "per_iteration_ms": [sim_seconds * 1e3 / 8] * 8,
        "events": 100_000,
        "events_per_s": 100_000 / median_s,
        "switches": 0,
    }


def _capture(adaptive=0.30):
    runs = {"microbatch-ec": _entry(0.33), "data-centric": _entry(0.35)}
    if adaptive is not None:
        runs["adaptive"] = _entry(adaptive)
    return {"calibration_s": 0.020, "runs": runs}


class TestConfigs:
    def test_both_subsets_carry_the_adaptive_run(self):
        for configs in (CONTROL_FULL_CONFIGS, CONTROL_QUICK_CONFIGS):
            assert "adaptive" in {spec.key for spec in configs}


class TestControlWins:
    def test_pass_when_adaptive_beats_every_static(self):
        assert check_control_wins(_capture()) == []

    def test_flagged_when_adaptive_loses_to_one_static(self):
        problems = check_control_wins(_capture(adaptive=0.34))
        assert len(problems) == 1
        assert "does not beat static microbatch-ec" in problems[0]

    def test_flagged_when_the_adaptive_run_is_missing(self):
        problems = check_control_wins(_capture(adaptive=None))
        assert problems == ["capture has no 'adaptive' run to gate on"]

    def test_gate_folds_into_the_suite_check(self):
        snapshot = _capture()
        assert CONTROL.check(snapshot, snapshot) == []
        problems = CONTROL.check(_capture(adaptive=0.40), snapshot)
        assert any("does not beat" in p for p in problems)
