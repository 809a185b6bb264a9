"""Tests for the task-graph schedules benchmark (``repro.bench.schedules``).

Wall-clock numbers are host-dependent, so the tests pin the capture
schema, key formatting, and the two gate layers (structural simulated-time
wins + calibration-rescaled medians) on synthetic captures.
"""

from repro.bench import SUITES, capture, format_capture
from repro.bench.schedules import (
    SCHEDULE_FULL_CONFIGS,
    SCHEDULE_QUICK_CONFIGS,
    SCHEDULES_SCHEMA,
    ScheduleBenchConfig,
    check_autotune_win,
    check_schedule_wins,
)

SCHEDULES = SUITES["schedules"]


def _entry(sim_seconds, median_s=0.1):
    return {
        "median_s": median_s,
        "best_s": median_s,
        "samples": [median_s],
        "sim_seconds": sim_seconds,
        "events": 1000,
        "events_per_s": 1000 / median_s,
    }


def _capture(ec_sim=0.20, micro_sim=0.14, calibration_s=0.010):
    return {
        "schema": SCHEDULES_SCHEMA,
        "calibration_s": calibration_s,
        "runs": {
            "expert-centric": _entry(ec_sim),
            "microbatch-ec/mb4": _entry(micro_sim),
        },
    }


class TestKeys:
    def test_key_encodes_schedule_knobs(self):
        assert ScheduleBenchConfig("expert-centric").key == "expert-centric"
        assert ScheduleBenchConfig(
            "microbatch-ec", micro_batches=4
        ).key == "microbatch-ec/mb4"
        assert ScheduleBenchConfig(
            "expert-centric", grad_allreduce="overlap"
        ).key == "expert-centric/ar-overlap"

    def test_key_encodes_chunk_and_stagger_knobs(self):
        assert ScheduleBenchConfig(
            "pipelined-ec", chunks=4, gpu="tight"
        ).key == "pipelined-ec/tight/c4"
        assert ScheduleBenchConfig(
            "pipelined-ec", chunks="auto", gpu="tight"
        ).key == "pipelined-ec/tight/auto"
        assert ScheduleBenchConfig(
            "microbatch-ec", micro_batches=4, stagger="wave"
        ).key == "microbatch-ec/mb4/wave"
        assert ScheduleBenchConfig(
            "microbatch-ec", micro_batches=4, stagger="chain"
        ).key == "microbatch-ec/mb4/stagger"

    def test_quick_configs_are_a_subset_of_full(self):
        full = {spec.key for spec in SCHEDULE_FULL_CONFIGS}
        assert {spec.key for spec in SCHEDULE_QUICK_CONFIGS} <= full


class TestStructuralWins:
    def test_pass_when_microbatching_wins(self):
        assert check_schedule_wins(_capture()) == []

    def test_flagged_when_microbatching_loses(self):
        problems = check_schedule_wins(_capture(ec_sim=0.14, micro_sim=0.20))
        assert len(problems) == 1
        assert "microbatch-ec/mb4" in problems[0]

    def test_missing_keys_are_skipped(self):
        capture = _capture()
        del capture["runs"]["microbatch-ec/mb4"]
        assert check_schedule_wins(capture) == []

    def test_flagged_when_stagger_loses_to_wave(self):
        capture = _capture()
        capture["runs"]["microbatch-ec/mb4/wave"] = _entry(0.118)
        capture["runs"]["microbatch-ec/mb4/stagger"] = _entry(0.121)
        problems = check_schedule_wins(capture)
        assert len(problems) == 1
        assert "microbatch-ec/mb4/stagger" in problems[0]


class TestAutotuneWin:
    def _capture(self, auto, fixed):
        return {
            "runs": {
                "pipelined-ec/tight/auto": _entry(auto),
                **{
                    f"pipelined-ec/tight/c{m}": _entry(sim)
                    for m, sim in fixed.items()
                },
            }
        }

    def test_pass_when_auto_dominates(self):
        capture = self._capture(0.39, {1: 0.44, 2: 0.41, 4: 0.41, 8: 0.45})
        assert check_autotune_win(capture) == []

    def test_flagged_per_fixed_count_auto_loses_to(self):
        capture = self._capture(0.43, {1: 0.44, 2: 0.41, 4: 0.42})
        problems = check_autotune_win(capture)
        assert len(problems) == 2
        assert "pipelined-ec/tight/c2" in problems[0]
        assert "pipelined-ec/tight/c4" in problems[1]

    def test_flagged_when_auto_beats_nothing(self):
        capture = self._capture(0.41, {2: 0.41, 4: 0.41})
        problems = check_autotune_win(capture)
        assert len(problems) == 1
        assert "dead weight" in problems[0]

    def test_skipped_without_an_auto_or_fixed_run(self):
        assert check_autotune_win(self._capture(0.5, {})) == []
        capture = self._capture(0.5, {2: 0.4})
        del capture["runs"]["pipelined-ec/tight/auto"]
        assert check_autotune_win(capture) == []

    def test_autotune_gate_folds_into_schedule_wins(self):
        capture = _capture()
        capture["runs"].update(
            self._capture(0.43, {2: 0.41})["runs"]
        )
        problems = check_schedule_wins(capture)
        assert any("pipelined-ec/tight/c2" in p for p in problems)


class TestSnapshotGate:
    def test_combines_wins_and_wall_gate(self):
        snap = _capture()
        # Wall regression (4x slower) AND a lost schedule win.
        current = _capture(ec_sim=0.14, micro_sim=0.20)
        current["runs"]["expert-centric"]["median_s"] = 0.4
        problems = SCHEDULES.check(current, snap, tolerance=0.25)
        assert any("does not beat" in p for p in problems)
        assert any("expert-centric: median" in p for p in problems)

    def test_pass_at_parity(self):
        snap = _capture()
        assert SCHEDULES.check(_capture(), snap) == []


class TestLiveCapture:
    def test_quick_suite_runs_and_formats(self):
        spec = ScheduleBenchConfig("expert-centric")
        current = capture(SCHEDULES, [spec], runs=1)
        assert current["schema"] == SCHEDULES_SCHEMA
        assert current["config"]["machines"] == 4
        entry = current["runs"][spec.key]
        assert entry["sim_seconds"] > 0
        assert entry["events"] > 0
        text = format_capture(SCHEDULES, current)
        assert "expert-centric" in text
        assert "1.00x" in text  # baseline compares to itself
