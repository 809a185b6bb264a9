"""Tests for the numerical-runtime bench suite (``repro bench --suite
runtime``).

Host-time measurements are never pinned to absolute numbers; these cover
the trainer-step capture schema, config validation, the shared
calibration-rescaled gate against ``BENCH_runtime.json``-shaped snapshots
(including the dtype-mismatch guard), and the CLI wiring.
"""

import json

import pytest

from repro.bench import SUITES, capture, format_capture
from repro.bench.runtime_speed import (
    RUNTIME_FULL_CONFIGS,
    RUNTIME_QUICK_CONFIGS,
    RUNTIME_SCHEMA,
    RuntimeBenchConfig,
    _runtime_model_config,
    time_runtime_config,
)

RUNTIME = SUITES["runtime"]


def _capture(median_s, calibration_s=0.010, dtype="float64",
             key="trainer-moe-gpt/data-centric"):
    return {
        "schema": RUNTIME_SCHEMA,
        "config": {"runs": 1, "warmup": 0, "dtype": dtype},
        "calibration_s": calibration_s,
        "runs": {
            key: {
                "median_s": median_s,
                "best_s": median_s,
                "samples": [median_s],
                "token_slots": 2048,
                "token_slots_per_s": 2048 / median_s,
            }
        },
    }


class TestRuntimeConfigs:
    def test_full_suite_covers_both_paradigms(self):
        modes = {spec.mode for spec in RUNTIME_FULL_CONFIGS}
        assert modes == {"expert-centric", "data-centric"}
        assert len({spec.key for spec in RUNTIME_FULL_CONFIGS}) == len(
            RUNTIME_FULL_CONFIGS
        )

    def test_quick_configs_are_a_subset_of_full(self):
        assert set(RUNTIME_QUICK_CONFIGS) <= set(RUNTIME_FULL_CONFIGS)

    def test_model_shapes_resolve(self):
        for spec in RUNTIME_FULL_CONFIGS:
            config = _runtime_model_config(spec.model)
            assert config.moe_block_indices

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            _runtime_model_config("trainer-unknown")

    def test_unknown_dtype_rejected(self):
        spec = RuntimeBenchConfig("trainer-small", "expert-centric")
        with pytest.raises(ValueError):
            time_runtime_config(spec, runs=1, dtype="float16")


class TestTimeRuntimeConfig:
    def test_reports_median_and_throughput(self):
        spec = RuntimeBenchConfig("trainer-small", "data-centric")
        result = time_runtime_config(spec, runs=2, warmup=1)
        assert len(result["samples"]) == 2
        assert result["median_s"] > 0
        assert result["best_s"] <= result["median_s"]
        assert result["token_slots"] > 0
        assert result["token_slots_per_s"] == pytest.approx(
            result["token_slots"] / result["median_s"]
        )
        # The warm-up steps trained: the loss is a real number.
        assert result["loss"] == pytest.approx(result["loss"])

    def test_float32_runs(self):
        spec = RuntimeBenchConfig("trainer-small", "expert-centric")
        result = time_runtime_config(spec, runs=1, warmup=0, dtype="float32")
        assert result["median_s"] > 0


class TestRunRuntimeSuite:
    def test_capture_schema(self):
        spec = RuntimeBenchConfig("trainer-small", "expert-centric")
        current = capture(RUNTIME, [spec], runs=1)
        assert current["schema"] == RUNTIME_SCHEMA
        assert current["config"]["dtype"] == "float64"
        assert current["calibration_s"] > 0
        assert current["host"]["cpus"] >= 1
        assert spec.key in current["runs"]
        assert current["wall_s"] > 0
        text = format_capture(RUNTIME, current)
        assert spec.key in text
        assert "float64" in text


class TestRuntimeGate:
    """The median gate is shared with every suite; these pin the
    runtime-shaped payloads through it and the dtype guard."""

    def test_pass_at_parity(self):
        assert RUNTIME.check(_capture(0.1), _capture(0.1)) == []

    def test_flags_regression(self):
        problems = RUNTIME.check(
            _capture(0.2), _capture(0.1), tolerance=0.25
        )
        assert len(problems) == 1
        assert "trainer-moe-gpt/data-centric" in problems[0]

    def test_calibration_rescales(self):
        snap = _capture(0.100, calibration_s=0.010)
        cur = _capture(0.200, calibration_s=0.020)
        assert RUNTIME.check(cur, snap, tolerance=0.25) == []


class TestRuntimeBenchCli:
    def test_write_then_check_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH_runtime.json"
        args = [
            "bench", "--suite", "runtime", "--quick", "--runs", "1",
            "--path", str(path),
        ]
        assert main(args + ["--write"]) == 0
        on_disk = json.loads(path.read_text())
        assert on_disk["schema"] == RUNTIME_SCHEMA
        assert on_disk["history"] == []
        assert main(args + ["--check", "--tolerance", "10.0"]) == 0
        assert "bench OK" in capsys.readouterr().out

    def test_check_without_snapshot_exits_2(self, tmp_path):
        from repro.cli import main

        assert main([
            "bench", "--suite", "runtime", "--quick", "--runs", "1",
            "--check", "--path", str(tmp_path / "missing.json"),
        ]) == 2

    def test_dtype_mismatch_fails_check(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH_runtime.json"
        path.write_text(json.dumps(_capture(10.0, dtype="float32")))
        code = main([
            "bench", "--suite", "runtime", "--quick", "--runs", "1",
            "--dtype", "float64", "--check", "--path", str(path),
        ])
        assert code == 1
        assert "dtype mismatch" in capsys.readouterr().err

    def test_suite_all_rejects_explicit_path(self, tmp_path):
        from repro.cli import main

        assert main([
            "bench", "--suite", "all", "--quick", "--runs", "1",
            "--path", str(tmp_path / "x.json"),
        ]) == 2
