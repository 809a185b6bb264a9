"""The simulator's compiled cores in pure Python: the tests' reference.

This package has the interface of the compiled extension module
(``repro._ckernel``, built by :mod:`repro._native`), name for name: the
event core and wait primitives of :mod:`tests.reference.simkit` and the
fluid kernel of :mod:`tests.reference.fluid`, whose fluid entries are
those of its ``NUMPY`` kernel.  Nothing under ``src/`` imports it.  The
tests use it three ways:

* as an oracle: the lockstep fuzzers and the equivalence suites run a
  network on it (``net._kernel = reference``, or
  ``reference.fluid.UNCOALESCED``) or a private copy of ``repro.simkit``
  on it (``tests.conftest.reference_simkit``) next to the compiled cores;
* as the whole simulator's cores: with ``REPRO_WATERFILL=python``,
  ``tests/conftest.py`` installs it in place of the extension before the
  first ``repro`` import, and every test runs on it;
* as a contract: a test checks that its public names are the
  extension's.
"""

from . import fluid
from .fluid import Flow, FluidNetwork
from .simkit import (
    AllOf,
    AnyOf,
    Condition,
    Container,
    ContainerGet,
    ContainerPut,
    Environment,
    Event,
    PriorityRequest,
    PriorityResource,
    Process,
    Request,
    Resource,
    Store,
    StoreGet,
    StorePut,
    Timeout,
    setup,
)

ledger = fluid.NUMPY.ledger
tables = fluid.NUMPY.tables
advance = fluid.NUMPY.advance
admit = fluid.NUMPY.admit
retire = fluid.NUMPY.retire
settle = fluid.NUMPY.settle
waterfill = fluid.NUMPY.waterfill
stage = fluid.NUMPY.stage
activate = fluid.NUMPY.activate
fire = fluid.NUMPY.fire
recompute = fluid.NUMPY.recompute

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Container",
    "ContainerGet",
    "ContainerPut",
    "Environment",
    "Event",
    "Flow",
    "FluidNetwork",
    "PriorityRequest",
    "PriorityResource",
    "Process",
    "Request",
    "Resource",
    "Store",
    "StoreGet",
    "StorePut",
    "Timeout",
    "activate",
    "admit",
    "advance",
    "fire",
    "ledger",
    "recompute",
    "retire",
    "settle",
    "setup",
    "stage",
    "tables",
    "waterfill",
]
