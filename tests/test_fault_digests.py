"""Faulted runs replay a frozen digest, retry for retry.

``fixtures/fault_digests.json`` pins, for each pull-paradigm mode
(``data-centric``, ``unified`` and data-centric without the hierarchical
cache, whose workers pull remote experts directly) × fault plan (message
loss on each lossable kind, a server outage, a NIC degradation, a compute
slowdown and one mixed plan; the loss plans include total loss of
requests and of gradient pushes):

* the run's ``seconds``, per-machine NIC egress and ``events_processed``;
* every :class:`~repro.faults.FaultStats` field;
* the sha256 of the seeded run's trace spans and marks (kind, ``repr``
  times, worker, block, detail / sorted mark fields).

Extra cases rerun some plans under non-default
:class:`~repro.faults.ResilienceConfig` budgets; the two
``on_failure="raise"`` cases pin the surfaced
:class:`~repro.faults.PullFailedError`.  ``tests/test_faults.py`` pins
only the fault-free timings, so this table is what holds the timeout /
retry / backoff / deadline paths to exact times.

Regenerate (only when a faulted timeline is *meant* to change):
``PYTHONPATH=src:. python tests/test_fault_digests.py``.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.config import moe_gpt
from repro.core import JanusFeatures, build_workload, engine_for
from repro.faults import FaultPlan, PullFailedError, ResilienceConfig

FIXTURE = Path(__file__).parent / "fixtures" / "fault_digests.json"

MODES = {
    "data-centric": ("data-centric", {}),
    "unified": ("unified", {}),
    "flat": ("data-centric", {"hierarchical": False}),
}
PLANS = {
    "loss-pull-request": "seed=3;loss=pull-request*0.3",
    "loss-grad-push": "seed=3;loss=grad-push*0.3",
    "loss-pull-direct": "seed=3;loss=pull-direct*0.3",
    "requests-lost": "seed=1;loss=pull-request+pull-direct*1.0",
    "pushes-lost": "seed=1;loss=grad-push*1.0",
    "outage": "outage=1@0:0.01",
    "link": "link=nic*0.05@0.0:0.05",
    "slow": "slow=0*0.5@0:0.02",
    "mixed": (
        "seed=5;loss=pull-request+grad-push+pull-direct*0.2;"
        "outage=0@0.004:0.008;link=nic.1*0.5@0.01:0.03;slow=1*0.7@0.005:0.02"
    ),
}
# Non-default budgets: surface the failure, a block deadline tight enough
# to cut fetch chains short, and no block deadline at all.
RESILIENCE = {
    "raise": ResilienceConfig(on_failure="raise"),
    "tight-deadline": ResilienceConfig(block_deadline=2e-3),
    "no-deadline": ResilienceConfig(block_deadline=None),
}
CASES = [f"{mode}/{plan}" for mode in MODES for plan in PLANS] + [
    "data-centric/requests-lost/raise",
    "flat/requests-lost/raise",
    "data-centric/loss-pull-request/tight-deadline",
    "data-centric/link/tight-deadline",
    "data-centric/loss-pull-request/no-deadline",
]


def _run(case: str):
    mode_name, plan_name, *budget = case.split("/")
    mode, features = MODES[mode_name]
    config = moe_gpt(16)
    cluster = Cluster(2)
    workload = build_workload(config, cluster)
    engine = engine_for(
        mode, config, cluster, workload=workload,
        features=JanusFeatures(**features),
        fault_plan=FaultPlan.parse(PLANS[plan_name]),
        resilience=RESILIENCE[budget[0]] if budget else None,
    )
    return engine.run_iteration()


def _plain(value):
    """A kernel-stable JSON value: floats by ``repr`` of the plain float
    (the pure-Python cores hand back numpy scalars), numpy scalars
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
    if case.endswith("/raise"):
        with pytest.raises(PullFailedError) as excinfo:
            _run(case)
        return {
            "error": str(excinfo.value),
            "attempts": excinfo.value.attempts,
        }
    result = _run(case)
    trace = result.trace
    spans = [
        [span.kind, _plain(span.start), _plain(span.end), span.worker,
         span.block, span.detail]
        for span in trace.spans
    ]
    marks = [
        sorted((key, _plain(value)) for key, value in event.items())
        for event in trace.events
    ]
    stats = asdict(result.fault_stats)
    return {
        "seconds": repr(float(result.seconds)),
        "egress": [repr(float(b)) for b in result.nic_egress_bytes],
        "events_processed": int(result.sim_events),
        "fault_stats": {
            key: (
                {str(k): v for k, v in sorted(value.items())}
                if isinstance(value, dict) else value
            )
            for key, value in stats.items()
        },
        "trace": _sha({"spans": spans, "marks": marks}),
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
