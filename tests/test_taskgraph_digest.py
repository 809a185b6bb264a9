"""Every engine mode builds and traces a frozen task graph.

``fixtures/taskgraph_digests.json`` pins, for each engine mode (every
registered strategy, ``unified``, ``auto`` and a mixed per-block map) ×
feature variant × {training, forward-only}:

* the sha256 of ``build_graph().to_json()`` — task names, lane names,
  waits/signals, claims and details;
* the sha256 of a seeded run's ``trace.spans`` and ``trace.events``
  (kind, ``repr`` times, worker, block, detail);
* the run's ``seconds``, ``nic_egress_bytes`` and ``events_processed``.

The goldens and the frozen legacy table pin *when* things happen; this
table also pins *what* the graph is called, which the Chrome trace,
``repro graph`` exports and the ``:mbK`` stagger parsing all read.

Regenerate (only when a graph or trace is *meant* to change):
``PYTHONPATH=src:. python tests/test_taskgraph_digest.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import JanusEngine, JanusFeatures, build_workload, engine_for

from tests.conftest import small_cluster, small_config

FIXTURE = Path(__file__).parent / "fixtures" / "taskgraph_digests.json"

# Blocks 1/3/7 have R > 1 on this cluster and block 5 has R < 1, so
# ``unified`` and ``auto`` build a data-centric/expert-centric mix.
CONFIG = small_config(
    num_blocks=8, experts_per_block={1: 4, 3: 4, 5: 16, 7: 4},
)
MIXED = {
    1: "microbatch-ec", 3: "data-centric", 5: "expert-centric",
    7: "pipelined-ec",
}
MODES = (
    "expert-centric", "data-centric", "pipelined-ec", "microbatch-ec",
    "unified", "auto", "mixed",
)
VARIANTS = {
    "default": {},
    "single": {"micro_batches": 1, "ec_pipeline_chunks": 1},
    "three": {"micro_batches": 3, "ec_pipeline_chunks": 3},
    "chain": {"a2a_stagger": "chain"},
    "serial": {"grad_allreduce": "serial"},
    "overlap": {"grad_allreduce": "overlap", "micro_batches": 3},
    "jitter": {},
}
CASES = [
    f"{mode}/{variant}/{'fwd' if forward_only else 'train'}"
    for mode in MODES
    for variant in VARIANTS
    for forward_only in (False, True)
]


def _engine(mode: str, variant: str) -> JanusEngine:
    cluster = small_cluster()
    workload = build_workload(
        CONFIG, cluster, imbalance=0.3, rng=np.random.default_rng(11),
    )
    features = JanusFeatures(**VARIANTS[variant])
    if mode == "mixed":
        strategies = MIXED
    else:
        base = engine_for(
            mode, CONFIG, cluster, workload=workload, features=features,
        )
        strategies, features = base.block_strategies, base.features
    jitter = 0.1 if variant == "jitter" else 0.0
    return JanusEngine(
        cluster, workload, strategies, features=features,
        compute_jitter=jitter, jitter_seed=5,
    )


def _plain(value):
    """A platform-stable JSON value: floats by ``repr``, numpy scalars
    unwrapped."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return str(value)


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def digest(case: str) -> dict:
    mode, variant, phase = case.split("/")
    forward_only = phase == "fwd"
    graph = _engine(mode, variant).build_graph(forward_only=forward_only)
    result = _engine(mode, variant).run_iteration(forward_only=forward_only)
    trace = result.trace
    spans = [
        [span.kind, _plain(span.start), _plain(span.end), span.worker,
         span.block, span.detail]
        for span in trace.spans
    ]
    events = [
        sorted((key, _plain(value)) for key, value in event.items())
        for event in trace.events
    ]
    return {
        "graph": _sha(graph.to_json()),
        "trace": _sha({"spans": spans, "events": events}),
        "seconds": repr(float(result.seconds)),
        "egress": [repr(float(b)) for b in result.nic_egress_bytes],
        "events_processed": int(result.sim_events),
    }


def _frozen() -> dict:
    return json.loads(FIXTURE.read_text())["cases"]


def test_fixture_covers_every_case():
    assert sorted(_frozen()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_case_replays_the_frozen_digest(case):
    assert digest(case) == _frozen()[case]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {"cases": {case: digest(case) for case in CASES}},
            indent=1, sort_keys=True,
        ) + "\n"
    )
