"""Self-test of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The smoke runs shrink the inputs and take one sample per workload, so the
whole file runs in well under a minute.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from worker import Run
from workloads import Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def smoke(tmp_path, *extra):
    out = tmp_path / "capture.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out),
         *extra],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    (capture,) = [json.loads(line) for line in out.read_text().splitlines()]
    return result, capture


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("traced"), "--trace")


def assert_metrics(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {
        f"{name}/{metric['name']}": metric["unit"]
        for name in NAMES for metric in metrics
    }
    assert {key: value["unit"] for key, value in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_smoke_emits_every_end_to_end_metric(untraced):
    result, _ = untraced
    assert_metrics(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        for name in NAMES:
            assert result["metrics"][f"{name}/{metric['name']}"]["value"] > 0


def test_smoke_trace_emits_every_per_layer_metric(traced):
    result, capture = traced
    assert_metrics(result, SPEC["per_layer"])
    assert all(not record["absent"] for record in capture["workloads"].values())


def test_traced_self_times_cover_the_sample(traced):
    _, capture = traced
    for record in capture["workloads"].values():
        for sample in record["layers"]:
            total = sum(seconds for _, _, seconds, _ in sample["pairs"])
            assert abs(total - sample["wall_s"]) <= 0.05 * sample["wall_s"]
        assert record["metrics"]["trace.unattributed_share"] < 0.05


def test_tracing_leaves_simulated_outputs_unchanged(untraced, traced):
    for name in NAMES:
        plain = untraced[1]["workloads"][name]
        assert traced[1]["workloads"][name]["sim"] == plain["sim"]
        assert traced[1]["workloads"][name]["events"] == plain["events"]


def test_layers_land_where_the_workloads_run_them(traced):
    metrics = {
        name: record["metrics"] for name, record in traced[1]["workloads"].items()
    }
    for name, values in metrics.items():
        assert (values["serving.self_share"] > 0) == (name == "serve-skewed-disagg")
        assert (values["control.self_share"] > 0) == (name == "drift-gpt-adaptive")
        assert (values["metrics.harvest.self_share"] > 0) == (
            name == "drift-gpt-adaptive"
        )
        assert (values["core.lanes.self_share"] == 0) == (
            name == "serve-skewed-disagg"
        )


class _Fake:
    """A workload whose samples return scripted outputs."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)

    def run(self):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def test_failed_samples_are_counted():
    good = Outcome({"sim_nic_gb": 1.0}, 10)
    fake = _Fake(
        good,
        Outcome({"sim_nic_gb": 1.0}, 10),
        Outcome({"sim_nic_gb": 1.5}, 10),          # output differs
        Outcome({"sim_nic_gb": 1.0}, 11),          # event count differs
        Outcome({"sim_nic_gb": 1.0}, 10, ["credit"]),
        RuntimeError("stalled"),
    )
    run = Run(fake.run, lambda outcome: outcome)
    for _ in range(6):
        run.sample()
    record = run.record()
    assert record["ops"] == 6
    assert [failure.split(":")[0] for failure in record["failed"]] == [
        "sample 3", "sample 4", "sample 5", "sample 6",
    ]


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [value * 0.8 for value in parent]
    slower = [value * 1.3 for value in parent]
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
    assert compare.verdict(parent, faster, "lower", 0.15)[0] == "improved"
    assert compare.verdict(parent, parent, "lower", 0.15)[0] == "unchanged"
    assert compare.verdict(parent, slower, "lower", 0.15)[0] == "worse"
    assert compare.verdict(noisy, noisy, "lower", 0.15)[0] == "unresolved"
    assert compare.verdict(parent[:3], faster[:3], "lower", 0.15)[0] == "unchanged"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_lint_clean():
    """The repo's ruff rules (E4/E7/E9/F); without ruff, the syntax and
    unused-import part of them."""
    files = sorted(HERE.glob("*.py"))
    ruff = shutil.which("ruff")
    if ruff is not None:
        proc = subprocess.run(
            [ruff, "check", *map(str, files)], cwd=ROOT,
            stdout=subprocess.PIPE, text=True,
        )
        assert proc.returncode == 0, proc.stdout
        return
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        compile(tree, str(path), "exec")
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        } | {
            node.value.id for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        }
        unused = sorted(name for name in imported if name not in used)
        assert not unused, f"{path.name}: unused imports {unused}"
