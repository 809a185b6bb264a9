"""Tests for the sim suite (``repro bench --suite sim``) and the shared
harness it runs on.

The harness measures *host* time, so no test pins absolute numbers; they
cover the capture schema, the calibration-scaled regression gate, history
preservation on ``--write``, and the CLI wiring.
"""

import json

import pytest

from repro.bench import SUITES, capture, format_capture, write_snapshot
from repro.bench.harness import CALIBRATION_SCALE_BOUNDS
from repro.bench.speed import QUICK_CONFIGS, SCHEMA, BenchConfig, time_config

SIM = SUITES["sim"]


def _capture(median_s, calibration_s=0.010, key="MoE-GPT/data-centric"):
    return {
        "schema": SCHEMA,
        "calibration_s": calibration_s,
        "runs": {
            key: {
                "median_s": median_s,
                "best_s": median_s,
                "samples": [median_s],
                "sim_seconds": 1.0,
                "events": 1000,
                "events_per_s": 1000 / median_s,
            }
        },
    }


class TestTimeConfig:
    def test_reports_median_events_and_sim_seconds(self):
        spec = BenchConfig("MoE-GPT", "expert-centric")
        result = time_config(spec, runs=2)
        assert len(result["samples"]) == 2
        assert result["median_s"] > 0
        assert result["best_s"] <= result["median_s"]
        assert result["events"] > 0
        assert result["sim_seconds"] > 0
        assert result["events_per_s"] == pytest.approx(
            result["events"] / result["median_s"]
        )


class TestRunSuite:
    def test_capture_schema(self):
        spec = BenchConfig("MoE-GPT", "expert-centric")
        current = capture(SIM, [spec], runs=1)
        assert current["schema"] == SCHEMA
        assert current["config"]["experts"] == spec.experts
        assert current["calibration_s"] > 0
        assert current["host"]["cpus"] >= 1
        assert spec.key in current["runs"]
        assert current["wall_s"] > 0
        # The table renderer accepts the capture.
        text = format_capture(SIM, current)
        assert spec.key in text
        assert "calibration" in text

    def test_quick_configs_are_a_subset_of_models(self):
        assert all(spec.model == "MoE-GPT" for spec in QUICK_CONFIGS)


class TestCheckSnapshot:
    def test_pass_when_at_parity(self):
        snap = _capture(0.100)
        cur = _capture(0.100)
        assert SIM.check(cur, snap, tolerance=0.25) == []

    def test_flags_regression_beyond_tolerance(self):
        snap = _capture(0.100)
        cur = _capture(0.130)
        problems = SIM.check(cur, snap, tolerance=0.25)
        assert len(problems) == 1
        assert "MoE-GPT/data-centric" in problems[0]

    def test_calibration_rescales_the_gate(self):
        # Same simulator efficiency on a host 2x slower: calibration
        # doubles, medians double, gate passes.
        snap = _capture(0.100, calibration_s=0.010)
        cur = _capture(0.200, calibration_s=0.020)
        assert SIM.check(cur, snap, tolerance=0.25) == []

    def test_calibration_scale_is_clamped(self):
        # A wildly slow calibration cannot absorb a 100x regression.
        low, high = CALIBRATION_SCALE_BOUNDS
        snap = _capture(0.100, calibration_s=0.010)
        cur = _capture(0.100 * high * 2, calibration_s=0.010 * high * 100)
        assert SIM.check(cur, snap, tolerance=0.25)

    def test_configs_missing_from_snapshot_are_reported(self):
        snap = _capture(0.100, key="MoE-GPT/unified")
        cur = _capture(0.100)  # data-centric, absent from snapshot
        problems = SIM.check(cur, snap, tolerance=0.25)
        assert "not in committed snapshot" in problems[0]

    def test_quick_capture_skips_unrun_configs(self):
        snap = _capture(0.100)
        snap["runs"]["MoE-BERT/unified"] = dict(
            snap["runs"]["MoE-GPT/data-centric"]
        )
        cur = _capture(0.100)
        assert SIM.check(cur, snap, tolerance=0.25) == []


class TestWriteSnapshot:
    def test_history_is_preserved(self, tmp_path):
        path = tmp_path / "BENCH_speed.json"
        history = [{"label": "pre-optimization", "runs": {}}]
        first = _capture(0.500)
        first["history"] = history
        path.write_text(json.dumps(first))
        written = write_snapshot(path, _capture(0.100))
        assert written["history"] == history
        on_disk = json.loads(path.read_text())
        assert on_disk["history"] == history
        assert on_disk["runs"]["MoE-GPT/data-centric"]["median_s"] == 0.100

    def test_fresh_write_gets_empty_history(self, tmp_path):
        path = tmp_path / "BENCH_speed.json"
        written = write_snapshot(path, _capture(0.100))
        assert written["history"] == []


class TestBenchCli:
    def test_check_against_written_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH_speed.json"
        args = [
            "bench", "--quick", "--runs", "1", "--path", str(path),
        ]
        assert main(args + ["--write"]) == 0
        assert path.exists()
        assert main(args + ["--check", "--tolerance", "10.0"]) == 0
        out = capsys.readouterr().out
        assert "bench OK" in out

    def test_check_without_snapshot_exits_2(self, tmp_path):
        from repro.cli import main

        assert main([
            "bench", "--quick", "--runs", "1",
            "--check", "--path", str(tmp_path / "missing.json"),
        ]) == 2
