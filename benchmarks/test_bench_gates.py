"""The structural gates of the wall-clock suites, as deterministic tests.

Each gate is a simulated-time fact, so it holds on any host and a
violation means the simulator regressed, not that the runner is slow:

* schedules — micro-batching, the overlapped all-reduce, ``auto`` and the
  staggered A2A beat their baselines, and the tuned chunk counts beat
  every fixed count (FSMoE-style autotuning);
* control — the adaptive run beats every static paradigm's total on the
  same drift trajectory;
* serving — disaggregated prefill/decode beats unified p99 TPOT on the
  skewed trace, and every run completes all offered requests.

The tests run the suites' simulated configs from ``wall.py`` and assert
on the ``IterationResult`` / ``ServingResult`` fields; no clock is read.
Each gate also fails on stubbed results of a synthetic regression.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_gates.py -q
"""

from types import SimpleNamespace
from typing import Dict, List, Sequence

import numpy as np
import pytest

import wall

# (faster key, slower key): simulated-time orderings the schedules must
# keep.
STRUCTURAL_WINS = (
    ("microbatch-ec/mb4", "expert-centric"),
    ("expert-centric/ar-overlap", "expert-centric/ar-serial"),
    ("auto/mb4", "expert-centric"),
    # Intra-A2A chunk scheduling: with the NIC fabric arbitrated, the
    # micro-round stagger must beat the unscheduled wave launch.
    ("microbatch-ec/mb4/stagger", "microbatch-ec/mb4/wave"),
)

# The tuned run must be no slower than *every* fixed chunk count of the
# same schedule/spec, and strictly faster than at least one of them (else
# the tuner is dead weight).
AUTOTUNE_WIN = ("pipelined-ec/tight/auto", "pipelined-ec/tight/c")


def schedule_problems(results: Dict) -> List[str]:
    """The schedule wins over one ``IterationResult`` per schedule key."""
    problems = []
    for fast_key, slow_key in STRUCTURAL_WINS:
        fast = results[fast_key].seconds
        slow = results[slow_key].seconds
        if not fast < slow:
            problems.append(
                f"{fast_key}: simulated {fast * 1e3:.2f} ms/iter does not "
                f"beat {slow_key} ({slow * 1e3:.2f} ms/iter)"
            )
    auto_key, fixed_prefix = AUTOTUNE_WIN
    auto = results[auto_key].seconds
    fixed = {
        key: result.seconds
        for key, result in sorted(results.items())
        if key.startswith(fixed_prefix)
    }
    slower = [
        f"{auto_key}: simulated {auto * 1e3:.2f} ms/iter is slower "
        f"than fixed {key} ({seconds * 1e3:.2f} ms/iter)"
        for key, seconds in fixed.items()
        if auto > seconds
    ]
    problems.extend(slower)
    if not slower and not any(auto < seconds for seconds in fixed.values()):
        problems.append(
            f"{auto_key}: simulated {auto * 1e3:.2f} ms/iter beats no "
            f"fixed chunk count (tuner is dead weight)"
        )
    return problems


def control_problems(results: Dict[str, Sequence]) -> List[str]:
    """Adaptive must beat every static total; ``results`` maps each key to
    its drift schedule's ``IterationResult`` list."""
    if "adaptive" not in results:
        return ["no 'adaptive' run to gate on"]
    totals = {
        key: sum(result.seconds for result in schedule)
        for key, schedule in results.items()
    }
    fast = totals.pop("adaptive")
    return [
        f"adaptive: simulated {fast * 1e3:.2f} ms total does not beat "
        f"static {key} ({slow * 1e3:.2f} ms total)"
        for key, slow in sorted(totals.items())
        if not fast < slow
    ]


def serving_problems(results: Dict) -> List[str]:
    """Completeness of every ``ServingResult``, and disaggregated p99 TPOT
    beating unified on each skewed pair."""
    problems = [
        f"{key}: not every offered request completed"
        for key, result in sorted(results.items())
        # Unserved requests keep the -1.0 sentinel completion stamp.
        if not (result.complete_s >= 0.0).all()
    ]
    pairs = sorted({
        int(key.rsplit("/", 1)[1])
        for key in results if key.startswith("skewed/")
    })
    if not pairs:
        problems.append("no skewed unified/disaggregated pair")
    for requests in pairs:
        unified = results.get(f"skewed/unified/{requests}")
        disagg = results.get(f"skewed/disaggregated/{requests}")
        if unified is None or disagg is None:
            problems.append(
                f"skewed trace of {requests} requests lacks a topology"
            )
            continue
        fast = disagg.summary()["tpot_p99_ms"]
        slow = unified.summary()["tpot_p99_ms"]
        if not fast < slow:
            problems.append(
                f"skewed/disaggregated/{requests}: p99 TPOT {fast:.3f} ms "
                f"does not beat unified ({slow:.3f} ms)"
            )
    return problems


# -- the gates on the simulated configs --------------------------------------


def test_schedule_wins_hold():
    results = {
        spec.key: wall.schedule_engines(spec)().run_iteration()
        for spec in wall.SCHEDULE_FULL_CONFIGS
    }
    assert schedule_problems(results) == []


def test_adaptive_beats_every_static_paradigm():
    results = {}
    for spec in wall.CONTROL_FULL_CONFIGS:
        engine, _ = wall.control_engine(spec)
        results[spec.key] = engine.run(wall.CONTROL_ITERATIONS)
    assert control_problems(results) == []


def test_disaggregation_wins_and_every_trace_completes():
    from repro.serving import simulate_serving

    results = {
        spec.key: simulate_serving(*wall.serving_inputs(spec))
        for spec in wall.SERVING_FULL_CONFIGS
    }
    assert serving_problems(results) == []


# -- each gate fails on a synthetic regression -------------------------------


def _iteration(seconds):
    return SimpleNamespace(seconds=seconds)


def _schedules(**overrides):
    seconds = {
        "expert-centric": 0.20,
        "microbatch-ec/mb4": 0.14,
        "expert-centric/ar-serial": 0.21,
        "expert-centric/ar-overlap": 0.19,
        "auto/mb4": 0.13,
        "pipelined-ec/tight/c1": 0.44,
        "pipelined-ec/tight/c2": 0.41,
        "pipelined-ec/tight/c4": 0.41,
        "pipelined-ec/tight/c8": 0.45,
        "pipelined-ec/tight/auto": 0.39,
        "microbatch-ec/mb4/wave": 0.121,
        "microbatch-ec/mb4/stagger": 0.118,
    }
    seconds.update(overrides)
    return {key: _iteration(value) for key, value in seconds.items()}


class TestScheduleGate:
    def test_passes_on_the_stub(self):
        assert schedule_problems(_schedules()) == []

    @pytest.mark.parametrize("fast_key,slow_key", STRUCTURAL_WINS)
    def test_a_tie_with_the_baseline_fails(self, fast_key, slow_key):
        results = _schedules()
        results[fast_key] = results[slow_key]
        problems = schedule_problems(results)
        assert len(problems) == 1
        assert problems[0].startswith(f"{fast_key}: ")

    def test_tuned_chunks_slower_than_a_fixed_count_fail(self):
        problems = schedule_problems(_schedules(**{
            "pipelined-ec/tight/auto": 0.415,
        }))
        assert [p.split(" than fixed ")[1].split()[0] for p in problems] == [
            "pipelined-ec/tight/c2", "pipelined-ec/tight/c4",
        ]

    def test_tuned_chunks_that_beat_no_fixed_count_fail(self):
        problems = schedule_problems(_schedules(**{
            f"pipelined-ec/tight/c{m}": 0.39 for m in (1, 2, 4, 8)
        }))
        assert len(problems) == 1
        assert "dead weight" in problems[0]


def _drift(**totals):
    return {
        key: [_iteration(total / 8)] * 8 for key, total in totals.items()
    }


class TestControlGate:
    def test_passes_when_adaptive_beats_every_static(self):
        assert control_problems(_drift(
            adaptive=0.24, **{"microbatch-ec": 0.27, "data-centric": 0.30}
        )) == []

    def test_adaptive_equal_to_the_best_static_fails(self):
        problems = control_problems(_drift(
            adaptive=0.27, **{"microbatch-ec": 0.27, "data-centric": 0.30}
        ))
        assert len(problems) == 1
        assert "does not beat static microbatch-ec" in problems[0]

    def test_a_missing_adaptive_run_fails(self):
        assert control_problems(_drift(**{"microbatch-ec": 0.27})) == [
            "no 'adaptive' run to gate on"
        ]


def _served(tpot_p99_ms, completed=True):
    return SimpleNamespace(
        complete_s=np.array([0.5, 1.0 if completed else -1.0]),
        summary=lambda: {"tpot_p99_ms": tpot_p99_ms},
    )


def _serving(unified=1.4, disaggregated=1.0, requests=8000):
    return {
        f"skewed/unified/{requests}": _served(unified),
        f"skewed/disaggregated/{requests}": _served(disaggregated),
    }


class TestServingGate:
    def test_passes_when_disaggregation_wins(self):
        results = _serving()
        results.update(_serving(requests=50_000))
        assert serving_problems(results) == []

    def test_disaggregation_tying_unified_fails(self):
        results = _serving()
        results.update(_serving(1.2, 1.2, requests=50_000))
        problems = serving_problems(results)
        assert len(problems) == 1
        assert problems[0].startswith("skewed/disaggregated/50000: ")

    def test_an_unserved_request_fails(self):
        results = _serving()
        results["bursty/unified/20000"] = _served(2.0, completed=False)
        assert serving_problems(results) == [
            "bursty/unified/20000: not every offered request completed"
        ]

    def test_a_missing_topology_fails(self):
        results = _serving()
        del results["skewed/disaggregated/8000"]
        assert serving_problems(results) == [
            "skewed trace of 8000 requests lacks a topology"
        ]
