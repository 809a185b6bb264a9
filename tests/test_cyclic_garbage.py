"""A finished simulation leaves no flow or event for the cyclic GC.

A flow's ``done`` event succeeds with ``None``; were its value the flow,
every finished flow would close a ``Flow -> done -> Flow`` cycle that
only the cyclic collector frees.  Under ``gc.DEBUG_SAVEALL`` each object
a collection finds unreachable lands in ``gc.garbage``, so after a small
data-centric iteration and a small serving trace, none of it may be a
``Flow`` or an ``Event``.  The test runs on whichever cores are
installed: the compiled ones, or the reference under
``REPRO_WATERFILL=python``.
"""

import gc
from contextlib import contextmanager

import pytest

from repro.core import build_workload, engine_for
from repro.netsim import Flow
from repro.serving import ServingConfig, TraceSpec, generate_trace, simulate_serving
from repro.simkit import Event
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


def _data_centric_iteration():
    config, cluster = small_config(), small_cluster()
    engine = engine_for(
        "data-centric", config, cluster, workload=build_workload(config, cluster),
    )
    return engine.run_iteration().seconds


def _serving_trace():
    trace = generate_trace(TraceSpec.parse(
        "poisson;rate=200;requests=32;seed=5;prompt_mean=16;output_mean=8;skew=1.0"
    ))
    serving = ServingConfig(topology="disaggregated", max_batch=8, prefill_batch=2)
    return simulate_serving(small_config(), small_cluster(), trace, serving).sim_events


@pytest.mark.parametrize("run", [_data_centric_iteration, _serving_trace],
                         ids=["data-centric", "serving"])
def test_a_finished_run_leaves_no_flow_or_event_in_a_cycle(run):
    with saved_garbage() as garbage:
        assert run() > 0
        gc.collect()
        cyclic = [type(obj).__name__ for obj in garbage if isinstance(obj, (Flow, Event))]
    assert cyclic == []
