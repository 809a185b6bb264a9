"""The task graph reproduces the retired process scheduler exactly.

Before the task graph became the engine's only execution path, every
built-in strategy also ran under a hand-rolled process scheduler.
``fixtures/legacy_scheduler_table.json`` froze that scheduler's outputs
on 30 seeded shapes: machines 2-3, experts per worker 1-2, batch 8/16,
routing imbalance 0/0.3/0.6, random routing seeds, every built-in
paradigm plus a mixed per-block map, training and forward-only.  Each row
pins simulated seconds, per-machine NIC egress bytes and the kernel
counters (events processed, processes started).  Replaying a row must
match every one of them *exactly* — the graph adds structure, not events.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import JanusEngine, JanusFeatures, build_workload
from repro.metrics import MetricsRegistry

from tests.conftest import small_cluster, small_config

ROWS = json.loads(
    (Path(__file__).parent / "fixtures" / "legacy_scheduler_table.json")
    .read_text()
)["rows"]
PARADIGMS = (
    "expert-centric", "data-centric", "pipelined-ec", "microbatch-ec",
    "mixed",
)


def _paradigm(row) -> str:
    strategies = row["strategies"]
    return strategies[0] if len(strategies) == 1 else "mixed"


def _replay(row) -> dict:
    """Run one fixture row's iteration; return its pinned outputs."""
    strategies = row["strategies"]
    experts = row["machines"] * 2 * row["experts_per_worker"]
    moe = [2 * i + 1 for i in range(len(strategies))]
    config = small_config(
        batch_size=row["batch"], num_blocks=2 * len(strategies),
        experts_per_block={block: experts for block in moe},
    )
    cluster = small_cluster(row["machines"], 2)
    workload = build_workload(
        config, cluster, imbalance=row["imbalance"],
        rng=np.random.default_rng(row["seed"]),
    )
    features = (
        JanusFeatures() if row["micro_batches"] is None
        else JanusFeatures(micro_batches=row["micro_batches"])
    )
    registry = MetricsRegistry()
    engine = JanusEngine(
        cluster, workload, dict(zip(moe, strategies)), features=features,
        metrics=registry,
    )
    result = engine.run_iteration(forward_only=row["forward_only"])
    return {
        "seconds": result.seconds,
        "egress": [float(b) for b in result.nic_egress_bytes],
        "events_processed": registry.gauge(
            "sim.events_processed", iteration=0
        ),
        "processes_started": registry.gauge(
            "sim.processes_started", iteration=0
        ),
    }


def _frozen(row) -> dict:
    return {
        key: row[key]
        for key in ("seconds", "egress", "events_processed",
                    "processes_started")
    }


class TestTaskGraphBitEquivalence:
    def test_table_covers_the_shape_space(self):
        assert len(ROWS) >= 24
        for paradigm in PARADIGMS:
            runs = {
                r["forward_only"] for r in ROWS if _paradigm(r) == paradigm
            }
            assert runs == {False, True}, paradigm
        mixed = {
            name
            for r in ROWS if _paradigm(r) == "mixed"
            for name in r["strategies"]
        }
        assert {"expert-centric", "data-centric", "pipelined-ec"} <= mixed
        assert {r["machines"] for r in ROWS} == {2, 3}
        assert {r["experts_per_worker"] for r in ROWS} == {1, 2}
        assert {r["batch"] for r in ROWS} == {8, 16}
        assert {r["imbalance"] for r in ROWS} == {0.0, 0.3, 0.6}

    def test_schedulers_agree_exactly(self):
        for row in ROWS:
            if not row["forward_only"]:
                assert _replay(row) == _frozen(row), row["id"]

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_forward_only_agrees_exactly(self, paradigm):
        rows = [
            r for r in ROWS if r["forward_only"] and _paradigm(r) == paradigm
        ]
        assert rows
        for row in rows:
            assert _replay(row) == _frozen(row), row["id"]
