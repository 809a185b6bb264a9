"""End-to-end benchmark of the Janus simulator.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed 7] [--seconds 20]
                                  [--trace [0|1]] [--smoke] [--out FILE]

Without ``--workload`` it runs all four workloads of ``BENCHMARK.json``.
The benchmark is a closed loop with one client: each workload runs in its
own fresh child process (``worker.py``), one at a time, with one thread
for numpy's math libraries.  Set-up time is the median over fresh
processes that only build the inputs.  Times are reported both as wall
seconds and as seconds at a reference host speed (``calibration.py``);
the end-to-end metrics use the latter.  ``--trace`` measures the
per-layer split instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` appends
the full capture (every sample, the simulated outputs and the layer
totals) as one JSON line, for ``compare.py``.  The exit code is 0 only
when every output check held.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
from calibration import REFERENCE_S
from compare import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

# Fresh processes timed for set-up, per workload and run.
SETUP_SPAWNS = 9

# Per-layer counts worth reporting (the rest are one call per iteration).
LAYER_COUNTS = {
    "netsim.waterfill": "netsim.waterfills",
    "netsim.solve": "netsim.solves",
    "netsim.timer": "netsim.timer_fires",
    "netsim.transfer": "netsim.transfers",
    "core.lanes": "core.lane_resumes",
    "serving": "serving.resumes",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(mode: str, workload: str, seed: int, extra=(), timeout=60.0):
    """Run one child to completion; return (launch clock, its JSON record)."""
    command = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, env=child_env(),
            cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode}: no result within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode}: exit code {proc.returncode}")
    return launched, json.loads(lines[-1])


def layer_totals(sample: dict):
    """Collapse one traced sample's (layer, caller) pairs to per-layer
    self seconds and call counts."""
    self_s, calls = defaultdict(float), defaultdict(int)
    for layer, _caller, seconds, count in sample["pairs"]:
        self_s[layer] += seconds
        calls[layer] += count
    return self_s, calls


def e2e_metrics(setups, record) -> dict:
    return {
        "setup_s": statistics.median(host_s for _, host_s in setups),
        "host_s_p50": statistics.median(record["host_s"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "sim_nic_gb": record["sim"]["sim_nic_gb"],
    }


def layer_metrics(record) -> dict:
    """Per-layer metrics of a traced run: medians over its traced samples."""
    totals = [layer_totals(sample) for sample in record["layers"]]
    walls = [sample["wall_s"] for sample in record["layers"]]

    def median_of(pick):
        return statistics.median(pick(self_s, calls, wall)
                                 for (self_s, calls), wall in zip(totals, walls))

    metrics = {}
    for layer in tracing.LAYERS + (tracing.ROOT,):
        name = (
            "trace.unattributed_share" if layer == tracing.ROOT
            else f"{layer}.self_share"
        )
        metrics[name] = median_of(lambda s, c, w: s.get(layer, 0.0) / w)
    for layer, name in LAYER_COUNTS.items():
        metrics[name] = median_of(lambda s, c, w: c.get(layer, 0))
    events = record["events"]
    solves = metrics["netsim.solves"]
    untraced = statistics.median(record["host_s"])
    metrics.update({
        "simkit.events": events,
        "simkit.us_per_event": untraced / events * 1e6,
        "netsim.waterfill_per_solve":
            metrics["netsim.waterfills"] / solves if solves else 0.0,
        "control.switches": record["sim"].get("sim_switches", 0.0),
        "sim.a2a_share": record["sim"].get("sim_a2a_share", 0.0),
        "trace.overhead": statistics.median(record["traced_host_s"]) / untraced,
    })
    return metrics


def report(workload: str, setups, record, trace: bool) -> None:
    """Human-readable lines for one workload (the JSON line comes last)."""
    print(f"{workload}: ops {record['ops']}, failed_ops {len(record['failed'])}")
    for failure in record["failed"]:
        print(f"  FAILED {failure}")
    if setups:
        print(f"  setup_s      {statistics.median(s for _, s in setups):.4f} s "
              f"(median of {len(setups)} spawns; wall "
              f"{statistics.median(s for s, _ in setups):.4f} s)")
    for name, key in (("host_s_p50", "host_s"), ("wall_s_p50", "walls")):
        values = record[key]
        q1, _, q3 = spread(values)
        print(f"  {name}   {statistics.median(values):.4f} s "
              f"(N={len(values)}, q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  peak_rss_mb  {record['peak_rss_mb']:.1f} MB")
    for name, value in sorted(record["sim"].items()):
        print(f"  {name:<16s} {value:.6g}")
    print(f"  sim_events   {record['events']}")
    if not trace or not record["layers"]:
        return
    traced = statistics.median(record["traced_host_s"])
    print(f"  traced       {traced:.4f} s (overhead "
          f"{traced / statistics.median(record['host_s']):.3f}x, "
          f"N={len(record['traced_host_s'])})")
    if record["absent"]:
        print(f"  absent       {', '.join(record['absent'])}")
    self_s, calls = layer_totals(record["layers"][0])
    wall = record["layers"][0]["wall_s"]
    for layer in sorted(self_s, key=self_s.get, reverse=True):
        print(f"  {layer:<18s} {self_s[layer] * 1e3:10.2f} ms "
              f"{self_s[layer] / wall:7.1%} {calls[layer]:9d} calls")


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measurement window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="measure per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one sample on shrunk inputs (self-test)")
    parser.add_argument("--out", help="append the full capture to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else names
    child_args = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        child_args.append("--smoke")
    try:
        # Set-up spawns interleave across workloads so that a slow spell of
        # the host does not land on one workload only.
        setups = defaultdict(list)
        spawns = 0 if args.trace else (1 if args.smoke else SETUP_SPAWNS)
        for _ in range(spawns):
            for workload in workloads:
                launched, ready = spawn("setup", workload, args.seed, child_args)
                wall = ready["ready"] - launched
                host_s = wall * REFERENCE_S / ready["calibration"]
                setups[workload].append((wall, host_s))
        records = {
            workload: spawn(
                "measure", workload, args.seed, child_args,
                timeout=2 * args.seconds + 120,
            )[1]
            for workload in workloads
        }
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    metrics, capture = {}, {}
    for workload, record in records.items():
        report(workload, setups[workload], record, bool(args.trace))
        capture[workload] = dict(record, setups=setups[workload])
        if not record["sim"] or (args.trace and not record["layers"]):
            continue  # no sample completed, so there is nothing to measure
        values = (
            layer_metrics(record) if args.trace
            else e2e_metrics(setups[workload], record)
        )
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
        capture[workload]["metrics"] = values
    attempted = sum(record["ops"] for record in records.values())
    failed = sum(len(record["failed"]) for record in records.values())
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({
                "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
                "seconds": args.seconds, "workloads": capture,
            }) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
