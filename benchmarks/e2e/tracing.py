"""Per-layer host-time attribution, patched in from outside the program.

A :class:`Tracer` keeps a span stack.  Each wrapped entry point opens a
span named after its layer; when the span closes, its duration minus the
time of the spans nested in it is the layer's *self time*, booked under
the (layer, caller layer) pair together with a call count.  Everything
stays in memory until the run ends.

``PATCHES`` is the one table of patch targets.  A target that no longer
exists (a refactor renamed or removed it) is listed in
:attr:`Tracer.absent`; its time then falls to its caller and the run
still completes.  Nothing under ``src/`` knows about this module.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

ROOT = "bench"

# (layer, module, attribute path, how to wrap).  "call" spans the call;
# "deferred" spans the callback handed to the wrapped function; "process"
# wraps the generator handed to it in a send/throw proxy whose layer is
# the module that defines the generator (see PROCESS_LAYERS).
PATCHES = (
    ("simkit", "repro.simkit.core", "Environment.run", "call"),
    ("netsim.solve", "repro.simkit.core",
     "Environment.defer_to_instant_end", "deferred"),
    ("netsim.waterfill", "repro.netsim._waterfill", "run", "call"),
    ("netsim.timer", "repro.netsim.fluid",
     "FluidNetwork._on_timer_event", "call"),
    ("netsim.timer", "repro.netsim.fluid",
     "FluidNetwork._activate_event", "call"),
    ("netsim.transfer", "repro.netsim.fluid", "FluidNetwork.transfer", "call"),
    ("core.services", "repro.simkit.core", "Environment.process", "process"),
    ("core.plan", "repro.core.engine", "build_iteration_plan", "call"),
    ("core.engine", "repro.core.engine", "JanusEngine.run_iteration", "call"),
    ("metrics.harvest", "repro.core.engine",
     "collect_iteration_metrics", "call"),
    ("control", "repro.control.controller", "Controller.prepare", "call"),
    ("control", "repro.control.controller", "Controller.observe", "call"),
    ("serving", "repro.serving.simulator", "ServingSimulator.run", "call"),
)

# Generator module prefix -> layer its resumes are booked to; first match.
# Any other generator (schedulers, pull transports, the engine's top level)
# is booked to the layer named in its PATCHES row.
PROCESS_LAYERS = (
    ("repro.core.taskgraph", "core.lanes"),
    ("repro.serving", "serving"),
    ("repro.netsim", "netsim.procs"),
)

LAYERS = tuple(dict.fromkeys(
    [row[0] for row in PATCHES] + [layer for _, layer in PROCESS_LAYERS]
))


class Tracer:
    """Span stack plus (layer, caller) self-time and call totals."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.events = 0
        self.absent = []
        self._stack = []
        self._undo = []

    # -- spans --------------------------------------------------------------

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        ended = time.perf_counter()
        layer, started, children = self._stack.pop()
        duration = ended - started
        caller = self._stack[-1] if self._stack else None
        if caller is not None:
            caller[2] += duration
        key = (layer, caller[0] if caller is not None else "")
        self.self_s[key] += duration - children
        self.calls[key] += 1

    def discount(self, seconds: float) -> None:
        """Leave ``seconds`` just spent outside the program out of every
        open span."""
        for span in self._stack:
            span[1] += seconds

    def take(self):
        """Return and reset the totals gathered since the last take."""
        totals = (dict(self.self_s), dict(self.calls), self.events)
        self.self_s.clear()
        self.calls.clear()
        self.events = 0
        return totals

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in ``PATCHES`` that exists."""
        self.absent = []
        for layer, module_name, path, kind in PATCHES:
            try:
                owner = importlib.import_module(module_name)
                *outer, name = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrap = {
                "call": self._wrap_call,
                "deferred": self._wrap_deferred,
                "process": self._wrap_process,
            }[kind]
            setattr(owner, name, wrap(layer, original))
            self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap_call(self, layer, fn):
        tracer = self
        counts_events = layer == "simkit"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_events:
                before = args[0].events_processed
            tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
                if counts_events:
                    tracer.events += args[0].events_processed - before

        return traced

    def _wrap_deferred(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(env, callback):
            def deferred():
                tracer.enter(layer)
                try:
                    callback()
                finally:
                    tracer.exit()

            return fn(env, deferred)

        return traced

    def _wrap_process(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(env, generator, *args, **kwargs):
            proxy = _Proxy(tracer, generator, process_layer(generator, layer))
            return fn(env, proxy, *args, **kwargs)

        return traced


def process_layer(generator, default: str) -> str:
    """The layer a simulation process's resumes are booked to."""
    frame = getattr(generator, "gi_frame", None)
    module = frame.f_globals.get("__name__", "") if frame is not None else ""
    for prefix, layer in PROCESS_LAYERS:
        if module.startswith(prefix):
            return layer
    return default


class _Proxy:
    """Generator stand-in that spans every resume of the real generator."""

    def __init__(self, tracer: Tracer, generator, layer: str):
        self._tracer = tracer
        self._generator = generator
        self._layer = layer
        self.__name__ = getattr(generator, "__name__", "process")

    def send(self, value):
        self._tracer.enter(self._layer)
        try:
            return self._generator.send(value)
        finally:
            self._tracer.exit()

    def throw(self, exc):
        self._tracer.enter(self._layer)
        try:
            return self._generator.throw(exc)
        finally:
            self._tracer.exit()
