"""One child process of the end-to-end benchmark (started by run.py).

``worker.py setup ...`` builds one workload's inputs and prints the
monotonic clock reading at which they were ready, so the parent can time
set-up from interpreter launch, and the host speed measured just after.
``worker.py measure ...`` builds the inputs, runs one discarded warm-up
sample and then timed samples back to back until the next one would
overrun ``--seconds``, with ``gc.collect()`` between samples and the host
speed sampled during each (see ``calibration.py``).  With ``--trace 1``
the timed samples alternate between traced and untraced, so the tracing
overhead is measured in one process.  The last line of standard output is
the run's JSON record.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import tracing
from calibration import Speedometer, calibrate
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parents[2] / "src"


def check_sources() -> None:
    """Refuse to measure any ``repro`` but the one beside this benchmark."""
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")


def failures(reference, outcome) -> list:
    """Why ``outcome`` fails its output checks against the run's first
    sample (an empty list when it passes)."""
    problems = list(outcome.problems)
    if outcome.sim != reference.sim:
        problems.append(f"sim outputs {outcome.sim} != first {reference.sim}")
    if outcome.events != reference.events:
        problems.append(
            f"{outcome.events} events != first sample's {reference.events}"
        )
    return problems


class Run:
    """The samples of one measured run and their accounting."""

    def __init__(self, run, summarize):
        self.run = run
        self.summarize = summarize
        self.reference = None
        # (wall seconds, seconds at the reference speed) per timed sample;
        # wall seconds leave out the calibration slices.
        self.untraced = []
        self.traced = []
        self.layers = []
        self.ops = 0
        self.failed = []
        self.absent = []

    def sample(self, tracer=None):
        """Run one sample and check it; return (wall seconds, seconds at
        the reference speed)."""
        gc.collect()
        self.ops += 1
        if tracer is not None:
            tracer.install()
            self.absent = tracer.absent
        speedometer = Speedometer(tracer.discount if tracer is not None else None)
        with speedometer:
            if tracer is not None:
                tracer.enter(tracing.ROOT)
            started = time.perf_counter()
            try:
                raw, error = self.run(), None
            except Exception as exc:  # any raise is a failed operation
                raw, error = None, f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.exit()
            ended = time.perf_counter()
        wall = ended - started - speedometer.paused
        timing = wall, speedometer.rescale(wall)
        if tracer is not None:
            tracer.uninstall()
            self_s, calls, events = tracer.take()
        if error is not None:
            self.failed.append(f"sample {self.ops}: {error}")
            return timing
        outcome = self.summarize(raw)
        if self.reference is None:
            self.reference = outcome
        problems = failures(self.reference, outcome)
        if tracer is not None:
            self.layers.append({
                "wall_s": wall,
                "host_s": timing[1],
                "pairs": [
                    [layer, caller, seconds, calls[(layer, caller)]]
                    for (layer, caller), seconds in sorted(self_s.items())
                ],
            })
            if events != outcome.events:
                problems.append(
                    f"traced run stepped {events} events, not {outcome.events}"
                )
        if problems:
            self.failed.append(f"sample {self.ops}: " + "; ".join(problems))
        return timing

    def measure(self, seconds: float, trace: bool, smoke: bool) -> None:
        """Time samples until the next one would overrun ``seconds``; with
        a tracer, alternate traced and untraced samples."""
        tracer = tracing.Tracer() if trace else None
        if not smoke:
            self.sample()  # warm-up: caches, lazy imports, kernel build
        started = time.perf_counter()
        while True:
            traced = tracer is not None and len(self.traced) <= len(self.untraced)
            timing = self.sample(tracer if traced else None)
            (self.traced if traced else self.untraced).append(timing)
            if smoke:
                if self.untraced and (tracer is None or self.traced):
                    return
                continue
            elapsed = time.perf_counter() - started
            typical = elapsed / (len(self.traced) + len(self.untraced))
            if elapsed + typical > seconds and self.untraced:
                return

    def record(self) -> dict:
        reference = self.reference
        return {
            "walls": [wall for wall, _ in self.untraced],
            "host_s": [host_s for _, host_s in self.untraced],
            "traced_walls": [wall for wall, _ in self.traced],
            "traced_host_s": [host_s for _, host_s in self.traced],
            "layers": self.layers,
            "absent": self.absent,
            "ops": self.ops,
            "failed": self.failed,
            "sim": reference.sim if reference else {},
            "events": reference.events if reference else 0,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    check_sources()
    run, summarize = WORKLOADS[args.workload](args.seed, args.smoke)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "calibration": calibrate()}))
        return 0
    measured = Run(run, summarize)
    measured.measure(args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(measured.record()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
