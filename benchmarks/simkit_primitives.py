"""Host cost of each simkit wait primitive, above a bare event wait.

    PYTHONPATH=src python benchmarks/simkit_primitives.py [--ops N] [--repeats R]

Each primitive runs as one process that performs ``--ops`` operations
back to back on a fresh environment.  Its time per operation minus that
of a process doing the same number of bare waits (``yield
env.timeout(0)``) is the primitive's own cost.  The minimum over
``--repeats`` loops is reported, for the compiled event kernel and for
the pure-python reference kernel, each in a child interpreter (the
reference one with ``REPRO_WATERFILL=python``).

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
    import repro.simkit as simkit

    best = {name: float("inf") for name in OPERATIONS}
    for _ in range(repeats):
        for name, body in OPERATIONS.items():
            best[name] = min(best[name], _seconds_per_op(simkit, body, ops))
    bare = best.pop("bare wait")
    costs = {name: (seconds - bare) * 1e6 for name, seconds in best.items()}
    return {"kernel": simkit.core.KERNEL, "bare_us": bare * 1e6, "costs": costs}


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
