"""Host cost of each simkit wait primitive, above a bare event wait, and
of the fluid network's flows and re-solves.

    PYTHONPATH=src python benchmarks/simkit_primitives.py [--ops N] [--repeats R]

Each primitive runs as one process that performs ``--ops`` operations
back to back on a fresh environment.  Its time per operation minus that
of a process doing the same number of bare waits (``yield
env.timeout(0)``) is the primitive's own cost.  The minimum over
``--repeats`` loops is reported, for the compiled event kernel and for
the pure-python reference kernel, each in a child interpreter (the
reference one with ``REPRO_WATERFILL=python``, which also runs the fluid
network's numpy kernel and its Python flows).

The fluid rows are absolute, not above a bare wait:

* a flow, from ``transfer`` to its ``done`` event: one process sends
  ``--ops`` flows one after another over one link and waits on each, so
  a flow costs its construction, its activation (after a latency timer
  when it has one), a one-row re-solve, its completion timer and the
  resume of its waiter;
* a re-solve with about 2,000 live rows: the deferred re-solve after
  one arrival, among 2,000 flows on the 992 NIC-to-NIC paths of 32
  machines (the shape of the 32-machine expert-centric e2e workload), so
  the water-fill resumes its last fill.

Layer: the e2e tracer (``e2e/tracing.py``) patches no primitive, so it
books their time to the layer of the calling process -- ``core.lanes``
for task-graph waits and arbiter claims, ``netsim.procs`` for compute
streams and collectives, ``simkit`` for callbacks run by the event loop.
This script measures that slice alone: the simkit wait primitives.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace


def _bare(simkit, env, kit, ops):
    for _ in range(ops):
        yield env.timeout(0)


def _request(simkit, env, kit, ops):
    for _ in range(ops):
        with kit.resource.request() as req:
            yield req


def _priority_request(simkit, env, kit, ops):
    for _ in range(ops):
        with kit.arbiter.request(priority=1) as req:
            yield req


def _store(simkit, env, kit, ops):
    for i in range(ops):
        kit.store.put(i)
        yield kit.store.get()


def _container(simkit, env, kit, ops):
    for _ in range(ops):
        yield kit.credits.get(1)
        kit.credits.put(1)


def _all_of(simkit, env, kit, ops):
    for _ in range(ops):
        yield simkit.AllOf(env, [env.timeout(0), env.timeout(0)])


def _any_of(simkit, env, kit, ops):
    for _ in range(ops):
        yield simkit.AnyOf(env, [env.timeout(0), env.timeout(0)])


# name -> process body; each operation hands the process one event.
OPERATIONS = {
    "bare wait": _bare,
    "Request + release": _request,
    "PriorityRequest + release": _priority_request,
    "Store put + get": _store,
    "Container get + put": _container,
    "AllOf of two timeouts": _all_of,
    "AnyOf of two timeouts": _any_of,
}


def _flow_seconds(simkit, netsim, ops: int, latency: float) -> float:
    """Seconds per flow from ``transfer`` to ``done``, one at a time."""
    env = simkit.Environment()
    net = netsim.FluidNetwork(env)
    net.add_link("link", 1e9)

    def send():
        for _ in range(ops):
            yield net.transfer(("link",), 1e3, latency).done

    env.process(send())
    gc.collect()
    started = time.perf_counter()
    env.run()
    return (time.perf_counter() - started) / ops


MACHINES = 32
LIVE_ROWS = 2_000


def _resolve_seconds(simkit, netsim, ops: int) -> float:
    """Seconds per deferred re-solve after one arrival among
    ``LIVE_ROWS`` live flows on 32 machines' NIC-to-NIC paths."""
    import numpy as np

    env = simkit.Environment()
    net = netsim.FluidNetwork(env)
    for machine in range(MACHINES):
        net.add_link(("out", machine), 12.5e9)
        net.add_link(("in", machine), 12.5e9)
    paths = [(("out", src), ("in", dst)) for src in range(MACHINES)
             for dst in range(MACHINES) if src != dst]
    rng = np.random.default_rng(7)
    for index in rng.integers(len(paths), size=LIVE_ROWS):
        net.transfer(paths[index], 1e15)  # none finishes
    env.run(until=1e-3)
    arrivals = rng.integers(len(paths), size=ops)
    gc.collect()
    spent = 0.0
    for index in arrivals:
        net.transfer(paths[index], 1e15)
        started = time.perf_counter()
        net._recompute()
        spent += time.perf_counter() - started
    return spent / ops


# name -> seconds per op, given the simkit and netsim modules and --ops.
FLUID = {
    "flow, no latency": lambda simkit, netsim, ops: _flow_seconds(
        simkit, netsim, ops, 0.0),
    "flow, 1 us latency": lambda simkit, netsim, ops: _flow_seconds(
        simkit, netsim, ops, 1e-6),
    f"re-solve, {LIVE_ROWS:,} live rows": lambda simkit, netsim, ops:
        _resolve_seconds(simkit, netsim, ops // 10),
}


def _seconds_per_op(simkit, body, ops: int) -> float:
    env = simkit.Environment()
    kit = SimpleNamespace(
        resource=simkit.Resource(env),
        arbiter=simkit.PriorityResource(env),
        store=simkit.Store(env),
        credits=simkit.Container(env, capacity=16, init=16),
    )
    env.process(body(simkit, env, kit, ops))
    gc.collect()
    started = time.perf_counter()
    env.run()
    return (time.perf_counter() - started) / ops


def measure(ops: int, repeats: int) -> dict:
    """Microseconds per op of every primitive, the bare wait's absolute
    and every other's above it."""
    import repro.netsim as netsim
    import repro.simkit as simkit

    best = {name: float("inf") for name in OPERATIONS}
    fluid = {name: float("inf") for name in FLUID}
    for _ in range(repeats):
        for name, body in OPERATIONS.items():
            best[name] = min(best[name], _seconds_per_op(simkit, body, ops))
        for name, run in FLUID.items():
            fluid[name] = min(fluid[name], run(simkit, netsim, ops))
    bare = best.pop("bare wait")
    costs = {name: (seconds - bare) * 1e6 for name, seconds in best.items()}
    return {"kernel": simkit.core.KERNEL, "bare_us": bare * 1e6, "costs": costs,
            "fluid": {name: seconds * 1e6 for name, seconds in fluid.items()}}


def _child(kernel: str, ops: int, repeats: int) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_WATERFILL", None)
    if kernel == "python":
        env["REPRO_WATERFILL"] = "python"
    out = subprocess.run(
        [sys.executable, __file__, "--child", "--ops", str(ops),
         "--repeats", str(repeats)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.ops, args.repeats)))
        return 0
    runs = [_child(kernel, args.ops, args.repeats) for kernel in ("compiled", "python")]
    print(f"simkit wait primitives: us per op above a bare event wait "
          f"(min of {args.repeats} x {args.ops} ops)")
    header = f"{'primitive':<28}" + "".join(f"{run['kernel']:>11}" for run in runs)
    print(header)
    print(f"{'(bare wait, absolute)':<28}"
          + "".join(f"{run['bare_us']:>11.2f}" for run in runs))
    for name in runs[0]["costs"]:
        print(f"{name:<28}" + "".join(f"{run['costs'][name]:>11.2f}" for run in runs))
    print(f"\nfluid network: us per flow (transfer to done) and per re-solve, "
          f"absolute (min of {args.repeats})")
    print(header)
    for name in runs[0]["fluid"]:
        print(f"{name:<28}" + "".join(f"{run['fluid'][name]:>11.2f}" for run in runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
