"""Tests for the bench registry and the one CLI path over it.

Every suite in ``repro.bench.SUITES`` must have a committed snapshot of
its own schema that passes its own gates, and ``repro bench`` must treat
every suite alike: one help text generated from the registry, one exit
code for ``--suite all`` that reports every suite.
"""

import json
from typing import NamedTuple

import pytest

import repro.bench
from repro.bench import SUITES, Suite
from repro.cli import main


@pytest.mark.parametrize("name", list(SUITES))
def test_committed_snapshot_passes_its_own_gates(name):
    suite = SUITES[name]
    assert suite.snapshot.exists()
    snapshot = json.loads(suite.snapshot.read_text())
    assert snapshot["schema"] == suite.schema
    full = {spec.key for spec in suite.full}
    assert {spec.key for spec in suite.quick} <= full
    assert suite.check(snapshot, snapshot) == []


def test_bench_help_names_every_suite_and_snapshot(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    out = capsys.readouterr().out
    for name, suite in SUITES.items():
        assert name in out
        assert suite.snapshot.name in out


class _Spec(NamedTuple):
    key: str


def _instant_suite(name, snapshot):
    return Suite(
        name=name,
        summary="instant",
        schema="test/instant/v1",
        snapshot=snapshot,
        full=(_Spec("only"),),
        quick=(_Spec("only"),),
        runs=(1, 1),
        unit="run",
        measure=lambda spec, runs: {"median_s": 1e-3},
        describe=lambda configs, runs: {"runs": runs},
        columns=(),
    )


def test_suite_all_check_reports_every_suite(tmp_path, monkeypatch, capsys):
    present = tmp_path / "present.json"
    present.write_text(json.dumps(
        {"schema": "test/instant/v1", "runs": {"only": {"median_s": 1.0}}}
    ))
    monkeypatch.setattr(repro.bench, "SUITES", {
        "missing": _instant_suite("missing", tmp_path / "missing.json"),
        "present": _instant_suite("present", present),
    })
    # A missing snapshot no longer stops the run: the later suite is
    # still checked, and the exit code is the worst of the two.
    assert main(["bench", "--suite", "all", "--quick", "--check"]) == 2
    captured = capsys.readouterr()
    assert "no snapshot at" in captured.err
    assert "bench OK: 1 config(s) within 25% of present.json" in captured.out
