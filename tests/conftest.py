"""Shared test factories (importable as ``tests.conftest``).

Plain functions rather than pytest fixtures so call sites can parameterize
them (``small_config(batch_size=8)``) and so the golden-metrics and
property suites share exactly the configurations the engine tests lock.

With ``REPRO_WATERFILL=python`` this module installs the pure-python
reference cores (:mod:`tests.reference`) in place of the compiled
extension before the first ``repro`` import, so every test runs on them.
It is the only place that knows a second kernel exists.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import os
import sys
from contextlib import contextmanager

from tests import reference


def _install_reference() -> None:
    """Import ``repro`` with ``repro._native.extension`` answering the
    reference package: ``_native`` is loaded before the package body,
    which binds the extension's types at import."""
    spec = importlib.util.find_spec("repro")
    package = importlib.util.module_from_spec(spec)
    sys.modules["repro"] = package
    native = importlib.import_module("repro._native")
    native.extension = lambda: reference
    spec.loader.exec_module(package)


REFERENCE_INSTALLED = os.environ.get("REPRO_WATERFILL") == "python"
if REFERENCE_INSTALLED:
    if "repro" in sys.modules:
        raise RuntimeError(
            "REPRO_WATERFILL=python, but repro was imported before "
            "tests.conftest could install the reference cores"
        )
    _install_reference()

from repro import _native  # noqa: E402
from repro.cluster import Cluster, MachineSpec  # noqa: E402
from repro.config import ModelConfig  # noqa: E402

# The compiled extension, or None when the reference cores are installed.
COMPILED = None if REFERENCE_INSTALLED else _native.extension()


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


@contextmanager
def _private_import(*prefixes):
    """Import afresh, for the length of the block, every module whose name
    starts with one of ``prefixes``; then restore ``sys.modules`` and the
    parent packages' attributes, so every other module keeps what it
    imported."""

    def ours(name):
        return any(name == p or name.startswith(p + ".") for p in prefixes)

    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if ours(name)}
    try:
        yield
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
        for name in prefixes:
            parent, _, child = name.rpartition(".")
            if name in saved and parent in sys.modules:
                setattr(sys.modules[parent], child, saved[name])


@functools.lru_cache(maxsize=None)
def reference_simkit():
    """A private copy of ``repro.simkit`` on a private copy of the
    reference cores, whichever cores ``repro.simkit`` itself runs.

    The copy is imported with ``repro._native.extension`` answering the
    reference package, as with ``REPRO_WATERFILL=python``; it has its own
    classes, exceptions included, and its own reference module, whose
    ``setup`` leaves the installed one alone.
    """
    with _private_import("tests.reference"):
        private = importlib.import_module("tests.reference")
    saved = _native.extension
    _native.extension = lambda: private
    try:
        with _private_import("repro.simkit"):
            copy = importlib.import_module("repro.simkit")
    finally:
        _native.extension = saved
    assert copy.Event is private.Event
    return copy


def kernel_id(kernel) -> str:
    """A fluid kernel's test id: ``NumpyKernel`` for the reference (the
    package or one of its kernels), ``CompiledKernel`` for the extension
    module."""
    if kernel is reference or isinstance(kernel, reference.fluid.NumpyKernel):
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
