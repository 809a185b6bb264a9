"""The simkit unit suites, rerun on the pure-python reference kernel.

``tests/test_simkit_core.py``, ``test_simkit_edge_cases.py`` and
``test_simkit_resources.py`` import their classes from ``repro.simkit``,
which runs the compiled event kernel whenever it builds.  This module
collects the same tests again and, for the length of each, points the
suites' names at a copy of ``repro.simkit`` on the reference kernel
(:func:`tests.conftest.reference_simkit`), so both kernels pass every
suite.  With ``REPRO_WATERFILL=python`` ``repro.simkit`` is already on
the reference kernel, and the reruns repeat the suites.
"""

import pytest

from tests import test_simkit_core, test_simkit_edge_cases, test_simkit_resources
from tests.conftest import reference_simkit
from tests.test_simkit_core import *  # noqa: F401,F403
from tests.test_simkit_edge_cases import *  # noqa: F401,F403
from tests.test_simkit_resources import *  # noqa: F401,F403

_SUITES = (test_simkit_core, test_simkit_edge_cases, test_simkit_resources)


@pytest.fixture(autouse=True)
def reference_kernel(monkeypatch):
    simkit = reference_simkit()
    for suite in _SUITES:
        for name in simkit.__all__:
            if hasattr(suite, name):
                monkeypatch.setattr(suite, name, getattr(simkit, name))
    return simkit


def test_suites_run_on_the_reference_kernel(reference_kernel):
    assert test_simkit_core.Environment is reference_kernel.Environment
    assert reference_kernel.Event.__module__ == "tests.reference.simkit"
    assert test_simkit_core.Environment().peek() == float("inf")
