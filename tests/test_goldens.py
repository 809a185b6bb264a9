"""Every frozen-output fixture replays exactly (see :mod:`tests.goldens`).

Four goldens replay under the test names they had before the registry,
so their test ids stay put: ``fault`` and ``taskgraph`` (bound in
``tests/test_fault_digests.py`` and ``tests/test_taskgraph_digest.py``),
``legacy-table`` and ``block-maps`` (replayed in
``tests/test_taskgraph_equivalence.py`` and ``tests/test_block_maps.py``).
Every other golden is bound here, so a newly registered golden is tested
with no further edit.  The ``serving`` golden's ``small/<topology>``
cases also replay as ``TestGolden::test_latencies_pinned`` in
``tests/test_serving_sim.py``, the ids they had before the registry.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tests.goldens import GOLDENS, bind, mismatches

ROOT = Path(__file__).resolve().parent.parent

BOUND_ELSEWHERE = ("fault", "taskgraph", "legacy-table", "block-maps")

test_fixture_covers_every_case, test_case_replays_the_frozen_digest = bind(
    *(name for name in GOLDENS if name not in BOUND_ELSEWHERE)
)


@pytest.mark.parametrize("name", ["block-maps", "legacy-table"])
def test_regenerating_an_unchanged_golden_rewrites_the_same_bytes(
    name, tmp_path
):
    golden = GOLDENS[name]
    copy = tmp_path / golden.fixture.name
    copy.write_text(golden.fixture.read_text())
    replace(golden, fixture=copy).write()
    assert copy.read_text() == golden.fixture.read_text()


@pytest.mark.parametrize("name", ["block-maps", "legacy-table"])
def test_changing_one_pinned_field_fails_exactly_that_case(name, tmp_path):
    golden = GOLDENS[name]
    document = json.loads(golden.fixture.read_text())
    case = sorted(document["cases"])[len(document["cases"]) // 2]
    value = document["cases"][case]
    if golden.pinned is None:
        value[0] = value[0].lower()
    else:
        value[golden.pinned[0]] *= 2
    copy = tmp_path / golden.fixture.name
    copy.write_text(json.dumps(document))
    assert mismatches(replace(golden, fixture=copy)) == [case]


# The child imports tests.conftest first, so under REPRO_WATERFILL=python
# (inherited) it replays on the reference cores, as this process does.
_REPLAY_ONE = """
import json, sys
import tests.conftest
from tests.goldens import GOLDENS, _sha
replayed, frozen = GOLDENS[sys.argv[1]].replay(sys.argv[2])
print(json.dumps([_sha(replayed), replayed == frozen]))
"""


def test_a_golden_replays_identically_under_two_hash_seeds():
    """``str`` hashes, and so the order of sets and dicts keyed by
    devices, change with ``PYTHONHASHSEED``; a golden that moves
    replicas, traces and metrics replays the same under two seeds."""
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    )
    outputs = [
        json.loads(subprocess.run(
            [sys.executable, "-c", _REPLAY_ONE, "control", "rotate-replicas"],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
        ).stdout)
        for seed in ("1", "987654")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0][1], "the replay differs from the frozen fixture"
