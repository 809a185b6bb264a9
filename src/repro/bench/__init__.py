"""Wall-clock benchmarks: ``repro bench``.

Everything else in the repo measures *simulated* time; this package is the
one place that measures *host* time — how long the simulator and the
numerical runtime take to run — so hot-path optimizations have a number
to move and regressions have a number to trip on.

Every suite is a :class:`Suite` record in :data:`SUITES`, run by the one
harness in :mod:`repro.bench.harness`; each commits its snapshot, with a
``history`` list of labelled prior captures, under ``benchmarks/``.

Entry points: ``repro bench --suite NAME`` (CLI) and ``make
bench[-NAME][-check|-write]``.
"""

from typing import Dict

from . import control, runtime_speed, scale, schedules, serving, speed
from .harness import Suite, capture, format_capture, write_snapshot

SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        speed.SUITE,
        runtime_speed.SUITE,
        schedules.SUITE,
        control.SUITE,
        serving.SUITE,
        scale.SUITE,
    )
}

__all__ = ["SUITES", "Suite", "capture", "format_capture", "write_snapshot"]
