"""The task graph reproduces the retired process scheduler exactly.

Before the task graph became the engine's only execution path, every
built-in strategy also ran under a hand-rolled process scheduler.
``fixtures/legacy_scheduler_table.json`` froze that scheduler's outputs
on 30 seeded shapes: machines 2-3, experts per worker 1-2, batch 8/16,
routing imbalance 0/0.3/0.6, random routing seeds, every built-in
paradigm plus a mixed per-block map, training and forward-only.  Each row
(golden ``legacy-table`` of :mod:`tests.goldens`) pins simulated seconds,
per-machine NIC egress bytes and the kernel counters (events processed,
processes started).  Replaying a row must match every one of them
*exactly* -- the graph adds structure, not events.
"""

import pytest

from tests.goldens import GOLDENS, legacy_rows, mismatches

PARADIGMS = (
    "expert-centric", "data-centric", "pipelined-ec", "microbatch-ec",
    "mixed",
)


def _paradigm(row) -> str:
    strategies = row["strategies"]
    return strategies[0] if len(strategies) == 1 else "mixed"


class TestTaskGraphBitEquivalence:
    def test_table_covers_the_shape_space(self):
        rows = list(legacy_rows().values())
        assert len(rows) >= 24
        for paradigm in PARADIGMS:
            runs = {
                r["forward_only"] for r in rows if _paradigm(r) == paradigm
            }
            assert runs == {False, True}, paradigm
        mixed = {
            name
            for r in rows if _paradigm(r) == "mixed"
            for name in r["strategies"]
        }
        assert {"expert-centric", "data-centric", "pipelined-ec"} <= mixed
        assert {r["machines"] for r in rows} == {2, 3}
        assert {r["experts_per_worker"] for r in rows} == {1, 2}
        assert {r["batch"] for r in rows} == {8, 16}
        assert {r["imbalance"] for r in rows} == {0.0, 0.3, 0.6}

    def test_schedulers_agree_exactly(self):
        training = [
            case for case, row in legacy_rows().items()
            if not row["forward_only"]
        ]
        assert mismatches(GOLDENS["legacy-table"], training) == []

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_forward_only_agrees_exactly(self, paradigm):
        cases = [
            case for case, row in legacy_rows().items()
            if row["forward_only"] and _paradigm(row) == paradigm
        ]
        assert cases
        assert mismatches(GOLDENS["legacy-table"], cases) == []
