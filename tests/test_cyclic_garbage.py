"""A finished simulation leaves nothing for the cyclic GC.

``Environment.run`` pauses the cyclic collector while its loop runs,
which is safe only because a run makes no reference cycle: reference
counting alone must free what it made.  Under ``gc.DEBUG_SAVEALL`` each
object a collection finds unreachable lands in ``gc.garbage``, so after
each execution shape below a collection must find nothing.  The shapes
cover every path the paused loop runs: a data-centric and an
expert-centric iteration (the staged All-to-All), two ``auto`` iterations
with micro-batches under a drift controller and a metrics registry, a
fault plan that takes retries and falls back, and a serving trace on
each topology.  The tests run on whichever cores are installed: the
compiled ones, or the reference under ``REPRO_WATERFILL=python``.
"""

import gc
from contextlib import contextmanager

import pytest

from repro.cluster import Cluster
from repro.config import moe_gpt
from repro.control import ControlConfig, Controller, ControlPolicy
from repro.core import JanusFeatures, build_workload, engine_for
from repro.faults import FaultPlan
from repro.metrics import MetricsRegistry
from repro.serving import ServingConfig, TraceSpec, generate_trace, simulate_serving
from repro.workloads import DriftSpec
from tests.conftest import small_cluster, small_config


@contextmanager
def saved_garbage():
    """``gc.garbage`` as the block's collections fill it: everything they
    found unreachable, each collection under ``DEBUG_SAVEALL``."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _iteration(mode):
    config, cluster = small_config(), small_cluster()
    engine = engine_for(mode, config, cluster, workload=build_workload(config, cluster))
    return engine.run_iteration().seconds


def _data_centric_iteration():
    return _iteration("data-centric")


def _expert_centric_iteration():
    return _iteration("expert-centric")


def _auto_under_drift_control():
    controller = Controller(
        policy=ControlPolicy(config=ControlConfig(recover_after_clean=1, deviation=0.1)),
        drift=DriftSpec(kind="flip", skew=1.5, period=2, seed=7),
    )
    engine = engine_for(
        "auto", moe_gpt(32).scaled(batch_size=64), Cluster(2), threshold=1.5,
        features=JanusFeatures(micro_batches=4), controller=controller,
        metrics=MetricsRegistry(),
    )
    return sum(result.seconds for result in engine.run(2))


def _retries_and_fallbacks():
    config, cluster = moe_gpt(16), Cluster(2)
    result = engine_for(
        "data-centric", config, cluster, workload=build_workload(config, cluster),
        fault_plan=FaultPlan.parse("seed=1;loss=pull-request*1.0"),
    ).run_iteration()
    assert result.fault_stats.retries > 0
    assert result.fault_stats.stale_fallbacks > 0
    return result.seconds


def _serving_trace(topology):
    trace = generate_trace(TraceSpec.parse(
        "poisson;rate=200;requests=32;seed=5;prompt_mean=16;output_mean=8;skew=1.0"
    ))
    serving = ServingConfig(topology=topology, max_batch=8, prefill_batch=2)
    return simulate_serving(small_config(), small_cluster(), trace, serving).sim_events


def _disaggregated_serving():
    return _serving_trace("disaggregated")


def _unified_serving():
    return _serving_trace("unified")


@pytest.mark.parametrize("run", [
    _data_centric_iteration, _disaggregated_serving, _expert_centric_iteration,
    _auto_under_drift_control, _retries_and_fallbacks, _unified_serving,
], ids=[
    "data-centric", "serving", "expert-centric", "auto-drift-metrics",
    "retries-fallbacks", "serving-unified",
])
def test_a_finished_run_leaves_no_flow_or_event_in_a_cycle(run):
    """Nor anything else: a collection after the run finds nothing."""
    with saved_garbage() as garbage:
        assert run() > 0
        gc.collect()
        cyclic = [type(obj).__name__ for obj in garbage]
    assert cyclic == []
