"""Reproduction of Janus (SIGCOMM 2023): a unified distributed training
framework for sparse Mixture-of-Experts models.

Layers:

* ``repro.simkit``    — discrete-event simulation kernel
* ``repro.cluster``   — static GPU-cluster topology model
* ``repro.netsim``    — flow-level network simulation (max-min fair)
* ``repro.tensorlib`` — numpy autograd engine + nn modules
* ``repro.models``    — transformer / MoE model zoo
* ``repro.runtime``   — functional multi-worker emulation (numerics + traffic)
* ``repro.core``      — Janus: paradigm selection, schedulers, timed engines
* ``repro.analysis``  — traffic tables and report formatting
* ``repro.workloads`` — synthetic token batches and routing distributions
* ``repro.trace``     — span/event tracing of simulated iterations
* ``repro.serving``   — request-level inference serving (continuous
  batching, disaggregated prefill/decode, SLO traffic)
"""

from . import (
    analysis,
    cluster,
    config,
    core,
    models,
    netsim,
    runtime,
    serving,
    simkit,
    tensorlib,
    trace,
    units,
    workloads,
)

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "cluster",
    "config",
    "core",
    "models",
    "netsim",
    "runtime",
    "serving",
    "simkit",
    "tensorlib",
    "trace",
    "units",
    "workloads",
    "__version__",
]
