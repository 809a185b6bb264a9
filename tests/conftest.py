"""Shared test factories (importable as ``tests.conftest``).

Plain functions rather than pytest fixtures so call sites can parameterize
them (``small_config(batch_size=8)``) and so the golden-metrics and
property suites share exactly the configurations the engine tests lock.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys

from repro.cluster import Cluster, MachineSpec
from repro.config import ModelConfig
from repro.netsim import _waterfill


def small_config(**overrides) -> ModelConfig:
    """The engine-test model: 4 blocks, MoE blocks {1, 3} with 4 experts."""
    defaults = dict(
        name="small",
        batch_size=16,
        seq_len=32,
        top_k=2,
        hidden_dim=64,
        num_blocks=4,
        experts_per_block={1: 4, 3: 4},
        num_heads=4,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def small_cluster(machines: int = 2, gpus: int = 2) -> Cluster:
    return Cluster(machines, MachineSpec(num_gpus=gpus))


def fault_arm_controller(degradation):
    """A controller whose policy runs only the fault arm: ``degradation``
    (a :class:`~repro.faults.DegradationPolicy`) with the load and replica
    arms off."""
    from repro.control import ControlConfig, Controller, ControlPolicy

    return Controller(
        policy=ControlPolicy(
            config=ControlConfig(adapt_load=False, adapt_replicas=False),
            degradation=degradation,
        )
    )


def tiny_model_config(**overrides) -> ModelConfig:
    """Numerics-scale model: small enough to run real forward/backward."""
    defaults = dict(
        name="tiny",
        batch_size=2,
        seq_len=6,
        top_k=2,
        hidden_dim=16,
        num_blocks=3,
        experts_per_block={1: 4},
        num_heads=4,
        vocab_size=50,
        causal=True,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


@functools.lru_cache(maxsize=None)
def reference_simkit():
    """A private copy of ``repro.simkit`` on the pure-python reference
    kernel, whichever kernel ``repro.simkit`` itself runs.

    The package is imported afresh with ``REPRO_WATERFILL=python``; then
    ``sys.modules`` and the ``repro.simkit`` attribute are restored, so
    every other module keeps the package it imported.  The copy has its
    own classes, exceptions included.
    """
    import repro

    def ours(name):
        return name == "repro.simkit" or name.startswith("repro.simkit.")

    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if ours(name)}
    saved_env = os.environ.get("REPRO_WATERFILL")
    os.environ["REPRO_WATERFILL"] = "python"
    try:
        copy = importlib.import_module("repro.simkit")
    finally:
        if saved_env is None:
            del os.environ["REPRO_WATERFILL"]
        else:
            os.environ["REPRO_WATERFILL"] = saved_env
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
        repro.simkit = saved["repro.simkit"]
    assert copy.core.KERNEL == "python"
    return copy


def kernel_id(kernel) -> str:
    """A fluid kernel's test id: ``NumpyKernel``, or ``CompiledKernel`` for
    the extension module."""
    if isinstance(kernel, _waterfill.NumpyKernel):
        return "NumpyKernel"
    return "CompiledKernel"


def certified(net):
    """``net`` with :meth:`~repro.netsim.FluidNetwork.certify` run after
    every re-solve at an instant's end, on whichever kernel it runs (pin
    the kernel first: setting ``_kernel`` rebinds the re-solve)."""
    recompute = net._recompute

    def recompute_and_certify():
        recompute()
        net.certify()

    net._recompute = recompute_and_certify
    return net
