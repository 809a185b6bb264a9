"""Smoke test of the A/B script (``e2e_ab.py``): one pair of ``--smoke``
runs of one workload, HEAD against the working tree.

    PYTHONPATH=src python -m pytest benchmarks/test_e2e_ab.py -q
"""

import json
import shutil
import subprocess

import pytest

import e2e_ab

WORKLOAD = "serve-skewed-disagg"


def in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD"], cwd=e2e_ab.ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return probe.returncode == 0


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout")
def test_one_smoke_pair_against_head(tmp_path, capfd):
    code = e2e_ab.main([
        "HEAD", "--pairs", "1", "--smoke", "--workload", WORKLOAD,
        "--out-dir", str(tmp_path),
    ])
    out = capfd.readouterr().out
    # One smoke pair is too noisy for a verdict: compare.py may call a
    # host-time metric worse (exit 1), but the simulated outputs of the
    # same seed must agree.
    assert code in (0, 1), out
    assert "simulated outputs differ" not in out
    # The parent ran first, then the change; compare.py printed its rows.
    assert out.index("pair 1/1: parent") < out.index("pair 1/1: change")
    assert f"{WORKLOAD} (1 vs 1 runs)" in out
    assert "sim_nic_gb" in out
    for side in ("parent", "change"):
        lines = (tmp_path / f"{side}.jsonl").read_text().splitlines()
        assert len(lines) == 1
        capture = json.loads(lines[0])
        assert capture["smoke"] and list(capture["workloads"]) == [WORKLOAD]
