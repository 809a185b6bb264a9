"""Tests of the wall-clock suites (``wall.py``).

Host time is never pinned to a number: these cover the configs and keys,
the capture schema, the rescaled timing loop, the median band, each
suite's wall gates (the runtime dtype guard, the weak-scaling growth law
and top-point budget), snapshot writing and the command line.  The
simulated-time gates are in ``test_bench_gates.py``.

    PYTHONPATH=src python -m pytest benchmarks/test_wall.py -q
"""

import copy
import json
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import wall
from wall import (
    BAND,
    CONTROL_FULL_CONFIGS,
    CONTROL_QUICK_CONFIGS,
    MAX_PER_EVENT_GROWTH,
    QUICK_CONFIGS,
    RESCALE_BOUNDS,
    RUNTIME_FULL_CONFIGS,
    RUNTIME_QUICK_CONFIGS,
    SCALE_FULL_CONFIGS,
    SCALE_QUICK_CONFIGS,
    SCHEDULE_FULL_CONFIGS,
    SCHEDULE_QUICK_CONFIGS,
    SERVING_FULL_CONFIGS,
    SERVING_QUICK_CONFIGS,
    SNAPSHOT_CAPTURES,
    SUITES,
    TOP_ITERATION_BUDGET_S,
    BenchConfig,
    RuntimeBenchConfig,
    ScaleBenchConfig,
    ScheduleBenchConfig,
    ServingBenchConfig,
    capture,
    check,
    check_scale,
    format_capture,
    pool,
    time_config,
    time_runs,
    time_runtime_config,
    time_scale_config,
    time_serving_config,
    write_snapshot,
)

SIM, RUNTIME, SCALE = SUITES["sim"], SUITES["runtime"], SUITES["scale"]


def _snapshot(suite):
    return json.loads(suite.snapshot.read_text())


def _with_medians(snapshot, factor):
    current = copy.deepcopy(snapshot)
    for entry in current["runs"].values():
        entry["median_s"] *= factor
    return current


# -- every suite ---------------------------------------------------------------


@pytest.mark.parametrize("name", list(SUITES))
def test_committed_snapshot_passes_its_own_gates(name):
    suite = SUITES[name]
    snapshot = _snapshot(suite)
    assert snapshot["schema"] == suite.schema
    assert "calibration_s" not in snapshot
    # Every quick config has a committed median to be checked against.
    full = {spec.key for spec in suite.full}
    assert {spec.key for spec in suite.quick} <= full
    assert set(snapshot["runs"]) == full
    assert check(suite, snapshot, snapshot) == []


@pytest.mark.parametrize("name", list(SUITES))
def test_the_band_is_25_percent_of_the_committed_median(name):
    suite = SUITES[name]
    snapshot = _snapshot(suite)
    assert BAND == 0.25
    assert check(suite, _with_medians(snapshot, 1.24), snapshot) == []
    problems = check(suite, _with_medians(snapshot, 1.26), snapshot)
    assert len(problems) == len(snapshot["runs"])
    assert all("+ 25%" in problem for problem in problems)


def test_a_nan_median_fails():
    snapshot = _snapshot(SIM)
    problems = check(SIM, _with_medians(snapshot, float("nan")), snapshot)
    assert len(problems) == len(snapshot["runs"])


def _capture(median_s, key="MoE-GPT/data-centric"):
    return {
        "schema": SIM.schema,
        "runs": {key: {"median_s": median_s, "best_s": median_s}},
        "wall_s": 1.0,
    }


class TestMedianGate:
    def test_pass_at_parity(self):
        assert check(SIM, _capture(0.100), _capture(0.100)) == []

    def test_flags_regression_beyond_the_band(self):
        problems = check(SIM, _capture(0.130), _capture(0.100))
        assert len(problems) == 1
        assert "MoE-GPT/data-centric" in problems[0]

    def test_configs_missing_from_snapshot_are_reported(self):
        problems = check(SIM, _capture(0.1), _capture(0.1, key="MoE-GPT/unified"))
        assert "not in committed snapshot" in problems[0]

    def test_quick_capture_skips_unrun_configs(self):
        snapshot = _capture(0.100)
        snapshot["runs"]["MoE-BERT/unified"] = {"median_s": 0.1}
        assert check(SIM, _capture(0.100), snapshot) == []


class TestTimeRuns:
    """Seconds at the reference speed: wall seconds less the calibration
    pauses, times one clamped factor from every sample's slices."""

    def _samples(self, monkeypatch, slices, paused=0.0):
        """One sample of 1 s wall per entry of ``slices``, the slice
        times (as multiples of REFERENCE_S) that sample's speedometer
        reads."""
        clock = iter(np.arange(2 * len(slices), dtype=float))
        readings = iter(slices)

        class Speedometer:
            def __enter__(self):
                self.paused = paused
                self.slices = [
                    wall.REFERENCE_S * slice_ for slice_ in next(readings)
                ]
                return self

            def __exit__(self, *exc):
                pass

        monkeypatch.setattr(wall, "Speedometer", Speedometer)
        monkeypatch.setattr(
            wall, "time", SimpleNamespace(perf_counter=lambda: next(clock))
        )
        samples, result = time_runs(
            len(slices), lambda state: state + 1, lambda: 41
        )
        assert result == 42
        return samples

    def test_wall_seconds_are_rescaled(self, monkeypatch):
        assert self._samples(monkeypatch, [[2.0, 2.0]]) == pytest.approx([0.5])

    def test_calibration_pauses_are_left_out(self, monkeypatch):
        assert self._samples(monkeypatch, [[0.5]], paused=0.25) == pytest.approx([1.5])

    def test_one_factor_pools_every_sample(self, monkeypatch):
        # Slices of 1x, 3x and 2x the reference: mean 2x, factor 0.5 for
        # both samples, so the best sample is not the one with fast slices.
        assert self._samples(monkeypatch, [[1.0], [3.0, 2.0]]) == pytest.approx(
            [0.5, 0.5]
        )

    def test_the_factor_is_clamped(self, monkeypatch):
        low, high = RESCALE_BOUNDS
        assert (low, high) == (0.2, 5.0)
        assert self._samples(monkeypatch, [[0.01]]) == [high]
        assert self._samples(monkeypatch, [[1000.0]]) == [low]

    def test_the_collector_is_off_inside_the_sample(self):
        import gc

        samples, enabled = time_runs(2, lambda _: gc.isenabled())
        assert enabled is False
        assert gc.isenabled()
        assert len(samples) == 2 and all(s > 0 for s in samples)


class TestPool:
    def test_each_config_takes_its_median_capture(self):
        captures = [
            {"runs": {"a": {"median_s": a, "best_s": a / 2},
                      "b": {"median_s": b}}, "wall_s": 1.0}
            for a, b in ((0.3, 2.0), (0.1, 3.0), (0.2, 1.0))
        ]
        pooled = pool(captures)
        assert pooled["runs"]["a"] == {"median_s": 0.2, "best_s": 0.1}
        assert pooled["runs"]["b"] == {"median_s": 2.0}
        assert pooled["wall_s"] == 3.0

    def test_one_capture_is_itself(self):
        assert pool([_capture(0.1)]) == _capture(0.1)


class TestWriteSnapshot:
    def test_history_is_preserved(self, tmp_path):
        path = tmp_path / "BENCH_speed.json"
        history = [{"label": "pre-optimization", "runs": {}}]
        path.write_text(json.dumps(dict(_capture(0.5), history=history)))
        written = write_snapshot(path, _capture(0.100))
        assert written["history"] == history
        on_disk = json.loads(path.read_text())
        assert on_disk["history"] == history
        assert on_disk["runs"]["MoE-GPT/data-centric"]["median_s"] == 0.100

    def test_fresh_write_gets_empty_history(self, tmp_path):
        written = write_snapshot(tmp_path / "new.json", _capture(0.100))
        assert written["history"] == []


# -- the command line ----------------------------------------------------------


class _Spec(NamedTuple):
    key: str


def _instant_suite(name, snapshot):
    return wall.Suite(
        name=name,
        schema="test/instant/v1",
        snapshot=snapshot,
        full=(_Spec("only"),),
        quick=(_Spec("only"),),
        runs=1,
        unit="run",
        measure=lambda spec, runs: {"median_s": 1e-3, "best_s": 1e-3},
        describe=lambda configs, runs: {"runs": runs},
    )


class TestCommandLine:
    def test_help_names_every_suite(self, capsys):
        with pytest.raises(SystemExit):
            wall.main(["--help"])
        out = capsys.readouterr().out
        for name in SUITES:
            assert name in out

    def test_write_then_check(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "BENCH_instant.json"
        monkeypatch.setattr(wall, "SUITES", {
            "instant": _instant_suite("instant", path),
        })
        args = ["--suite", "instant", "--quick"]
        assert wall.main(args + ["--write"]) == 0
        assert json.loads(path.read_text())["history"] == []
        assert wall.main(args + ["--check"]) == 0
        assert "instant OK: 1 config(s) within 25% of" in capsys.readouterr().out

    def test_write_pools_every_capture(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_instant.json"
        medians = iter(range(1, 2 * SNAPSHOT_CAPTURES + 1))

        def measure(spec, runs):
            median_s = next(medians) * 1e-3
            return {"median_s": median_s, "best_s": median_s}

        monkeypatch.setattr(wall, "SUITES", {
            "instant": _instant_suite("instant", path)._replace(
                measure=measure
            ),
        })
        assert SNAPSHOT_CAPTURES == 5
        assert wall.main(["--suite", "instant", "--write"]) == 0
        # Each capture measures twice (the untimed first run, then the
        # config): medians 2, 4, 6, 8, 10 ms pool to 6 ms.
        snapshot = json.loads(path.read_text())
        assert snapshot["runs"]["only"]["median_s"] == pytest.approx(6e-3)

    def test_suite_all_check_reports_every_suite(
        self, tmp_path, monkeypatch, capsys
    ):
        present = tmp_path / "present.json"
        present.write_text(json.dumps(
            {"schema": "test/instant/v1", "runs": {"only": {"median_s": 1.0}}}
        ))
        monkeypatch.setattr(wall, "SUITES", {
            "missing": _instant_suite("missing", tmp_path / "missing.json"),
            "present": _instant_suite("present", present),
        })
        out_path = tmp_path / "capture.json"
        # A missing snapshot does not stop the run: the later suite is
        # still checked, and the exit code is the worst of the two.
        assert wall.main(
            ["--suite", "all", "--quick", "--check", "--out", str(out_path)]
        ) == 2
        captured = capsys.readouterr()
        assert "no snapshot at" in captured.err
        assert "present OK: 1 config(s) within 25% of present.json" in captured.out
        assert set(json.loads(out_path.read_text())) == {"missing", "present"}

    def test_a_regression_exits_1(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps({"runs": {"only": {"median_s": 1e-4}}}))
        monkeypatch.setattr(wall, "SUITES", {
            "instant": _instant_suite("instant", path),
        })
        assert wall.main(["--suite", "instant", "--check"]) == 1
        assert "only: median 1.0 ms/run" in capsys.readouterr().err


# -- sim -----------------------------------------------------------------------


class TestSim:
    def test_reports_median_events_and_sim_seconds(self):
        result = time_config(BenchConfig("MoE-GPT", "expert-centric"), runs=2)
        assert len(result["samples"]) == 2
        assert 0 < result["best_s"] <= result["median_s"]
        assert result["events"] > 0
        assert result["sim_seconds"] > 0
        assert result["events_per_s"] == pytest.approx(
            result["events"] / result["median_s"]
        )

    def test_capture_schema(self):
        spec = BenchConfig("MoE-GPT", "expert-centric")
        current = capture(SIM, [spec], runs=1)
        assert current["schema"] == SIM.schema
        assert current["config"]["experts"] == spec.experts
        assert current["host"]["cpus"] >= 1
        assert spec.key in current["runs"]
        assert current["wall_s"] > 0
        assert spec.key in format_capture(SIM, current)

    def test_quick_configs_are_the_headline_model(self):
        assert all(spec.model == "MoE-GPT" for spec in QUICK_CONFIGS)


# -- runtime -------------------------------------------------------------------


def _runtime_capture(dtype):
    return {"config": {"dtype": dtype}, "runs": {}}


class TestRuntime:
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
            assert wall._runtime_model_config(spec.model).moe_block_indices

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            wall._runtime_model_config("trainer-unknown")

    def test_reports_median_and_throughput(self):
        spec = RuntimeBenchConfig("trainer-small", "data-centric")
        result = time_runtime_config(spec, runs=2)
        assert len(result["samples"]) == 2
        assert 0 < result["best_s"] <= result["median_s"]
        assert result["token_slots"] > 0
        assert result["token_slots_per_s"] == pytest.approx(
            result["token_slots"] / result["median_s"]
        )
        # The warm-up steps trained: the loss is a real number.
        assert result["loss"] == pytest.approx(result["loss"])

    def test_capture_schema(self):
        spec = RuntimeBenchConfig("trainer-small", "expert-centric")
        current = capture(RUNTIME, [spec], runs=1)
        assert current["schema"] == RUNTIME.schema
        assert current["config"]["dtype"] == "float64"
        assert spec.key in current["runs"]

    def test_committed_snapshot_is_float64(self):
        assert _snapshot(RUNTIME)["config"]["dtype"] == "float64"

    def test_dtype_mismatch_fails_check(self):
        problems = check(
            RUNTIME, _runtime_capture("float64"), _runtime_capture("float32")
        )
        assert problems == [
            "dtype mismatch: capture is float64, snapshot is float32 "
            "(timings are not comparable)"
        ]


# -- schedules -----------------------------------------------------------------


class TestSchedules:
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
        assert set(SCHEDULE_QUICK_CONFIGS) <= set(SCHEDULE_FULL_CONFIGS)

    def test_capture_runs_and_formats(self):
        suite = SUITES["schedules"]
        spec = ScheduleBenchConfig("expert-centric")
        current = capture(suite, [spec], runs=1)
        assert current["config"]["machines"] == 4
        entry = current["runs"][spec.key]
        assert entry["sim_seconds"] > 0
        assert entry["events"] > 0
        assert "expert-centric" in format_capture(suite, current)


# -- control -------------------------------------------------------------------


def test_both_control_subsets_carry_the_adaptive_run():
    for configs in (CONTROL_FULL_CONFIGS, CONTROL_QUICK_CONFIGS):
        assert "adaptive" in {spec.key for spec in configs}


# -- serving -------------------------------------------------------------------


class TestServing:
    def test_key_is_trace_topology_and_request_count(self):
        assert ServingBenchConfig(
            "skewed", "disaggregated", 50_000
        ).key == "skewed/disaggregated/50000"

    def test_quick_configs_are_full_configs(self):
        assert set(SERVING_QUICK_CONFIGS) <= set(SERVING_FULL_CONFIGS)
        full = [spec.key for spec in SERVING_FULL_CONFIGS]
        assert len(set(full)) == len(full)

    def test_full_suite_contains_both_skewed_pairs(self):
        keys = {spec.key for spec in SERVING_FULL_CONFIGS}
        assert {
            "skewed/unified/8000", "skewed/disaggregated/8000",
            "skewed/unified/50000", "skewed/disaggregated/50000",
        } <= keys

    def test_tiny_capture_runs_and_formats(self):
        suite = SUITES["serving"]
        spec = ServingBenchConfig("skewed", "unified", 400)
        current = capture(suite, [spec], runs=1)
        assert current["config"]["machines"] == 4
        assert current["config"]["traces"]["skewed"].startswith("poisson;")
        entry = current["runs"][spec.key]
        assert entry["completed_ok"] is True
        assert entry["requests"] == 400
        assert entry["events"] > 0
        assert len(entry["digest"]) == 64
        assert "skewed/unified/400" in format_capture(suite, current)

    def test_timed_runs_report_identical_simulated_facts(self):
        spec = ServingBenchConfig("skewed", "disaggregated", 300)
        first = time_serving_config(spec, runs=1)
        second = time_serving_config(spec, runs=2)
        assert first["digest"] == second["digest"]
        assert first["tpot_p99_ms"] == second["tpot_p99_ms"]
        assert len(second["samples"]) == 2


# -- scale ---------------------------------------------------------------------


_EVENTS = {8: 12_000, 16: 29_000, 32: 75_000, 64: 215_000, 128: 692_000}


def _scale_capture(per_event=(5.0, 5.5, 6.0), machines=(8, 32, 128)):
    runs = {}
    for m, us in zip(machines, per_event):
        median = us * 1e-6 * _EVENTS[m]
        runs[f"MoE-GPT/expert-centric/{m}m"] = {
            "machines": m, "median_s": median, "best_s": median,
            "events": _EVENTS[m], "per_event_us": us,
        }
    return {"schema": SCALE.schema, "runs": runs}


class TestScaleConfigs:
    def test_key_includes_machines(self):
        assert ScaleBenchConfig(machines=64).key == "MoE-GPT/expert-centric/64m"

    def test_experts_scale_with_machines(self):
        assert ScaleBenchConfig(machines=128).experts == 1024

    def test_full_sweep_spans_8_to_128(self):
        machines = [spec.machines for spec in SCALE_FULL_CONFIGS]
        assert machines == sorted(machines)
        assert (machines[0], machines[-1]) == (8, 128)

    def test_top_point_crosses_a_million_events(self):
        # ~692k events per 128-machine iteration; two iterations per
        # timed sample put the capture past 1M simulated events.
        assert SCALE_FULL_CONFIGS[-1].iterations >= 2

    def test_quick_configs_are_a_subset_of_full(self):
        assert set(SCALE_QUICK_CONFIGS) <= set(SCALE_FULL_CONFIGS)


class TestScaleGates:
    def test_flat_scaling_passes(self):
        assert check_scale(_scale_capture(), {}) == []

    def test_growth_at_the_bound_passes(self):
        assert MAX_PER_EVENT_GROWTH == 1.3
        capture = _scale_capture(per_event=(5.0, 5.5, 5.0 * MAX_PER_EVENT_GROWTH))
        assert check_scale(capture, {}) == []

    def test_superlinear_growth_fails(self):
        problems = check_scale(_scale_capture(per_event=(5.0, 6.0, 8.0)), {})
        assert len(problems) == 1
        assert "1.60x" in problems[0]

    def test_endpoints_are_smallest_and_largest_fleet(self):
        # A pathological middle point must not trip the endpoint law.
        assert check_scale(_scale_capture(per_event=(5.0, 50.0, 6.0)), {}) == []

    def test_single_point_is_rejected(self):
        assert check_scale(_scale_capture(per_event=(5.0,), machines=(8,)), {})

    def test_narrow_span_skips_the_growth_law(self):
        # 8 -> 16 machines is the quick subset: adjacent sub-second points
        # differ by scheduler noise, not scaling structure, so even a wild
        # ratio must not gate until the span reaches 4x.
        narrow = _scale_capture(per_event=(5.0, 10.0), machines=(8, 16))
        assert check_scale(narrow, {}) == []
        wide = _scale_capture(per_event=(5.0, 10.0), machines=(8, 32))
        assert check_scale(wide, {})

    def test_top_point_budget_fails_when_blown(self):
        assert TOP_ITERATION_BUDGET_S == 10.0
        slow = 1.01 * TOP_ITERATION_BUDGET_S * 1e6 / _EVENTS[128]
        capture = _scale_capture(per_event=(slow / 1.2, slow / 1.1, slow))
        problems = check(SCALE, capture, capture)
        assert len(problems) == 1
        assert "budget 10 s" in problems[0]

    def test_committed_snapshot_spans_the_sweep(self):
        snapshot = _snapshot(SCALE)
        assert len(snapshot["runs"]) == len(SCALE_FULL_CONFIGS)
        top = max(snapshot["runs"].values(), key=lambda e: e["machines"])
        assert top["machines"] == 128
        assert top["events_total"] >= 1_000_000

    def test_time_scale_config_smoke(self):
        entry = time_scale_config(ScaleBenchConfig(machines=2), runs=1)
        assert entry["machines"] == 2
        assert entry["experts"] == 16
        assert entry["events"] > 0
        assert entry["per_event_us"] > 0
        assert entry["median_s"] == pytest.approx(entry["best_s"])
