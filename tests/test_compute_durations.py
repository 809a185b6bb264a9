"""Every kernel duration that reaches ``Fabric.compute`` is a Python number.

A numpy scalar duration would price each kernel in numpy-scalar
arithmetic.  The data-centric compute body reads its routing row as
Python ints for that reason; this test holds every strategy to it on the
golden training shapes (``tests/goldens.py``): every engine mode under
every feature variant of the ``taskgraph`` golden (expert-centric,
data-centric, pipelined and micro-batched, jittered), and the ``fault``
golden's plans with a compute slowdown, whose stretched kernels go
through the injector.
"""

import pytest

from repro.netsim import Fabric
from tests.goldens import GRAPH_CASES, _fault_run, _graph_engine

TRAINING_SHAPES = [case for case in GRAPH_CASES if case.endswith("/train")]
SLOWDOWN_SHAPES = ["data-centric/slow", "unified/slow", "flat/slow", "data-centric/mixed"]


@pytest.fixture
def durations(monkeypatch):
    """The type of every ``seconds`` handed to ``Fabric.compute``."""
    seen = []
    compute = Fabric.compute

    def recording(self, gpu, seconds):
        seen.append(type(seconds))
        return compute(self, gpu, seconds)

    monkeypatch.setattr(Fabric, "compute", recording)
    return seen


@pytest.mark.parametrize("case", TRAINING_SHAPES)
def test_training_shapes_price_kernels_in_python_numbers(case, durations):
    mode, variant, _ = case.split("/")
    _graph_engine(mode, variant).run_iteration()
    assert durations and set(durations) <= {float, int}


@pytest.mark.parametrize("case", SLOWDOWN_SHAPES)
def test_slowed_kernels_are_priced_in_python_numbers(case, durations):
    result = _fault_run(case)
    assert result.seconds > 0
    assert durations and set(durations) <= {float, int}
