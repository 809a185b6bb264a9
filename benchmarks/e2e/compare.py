"""Compare two sets of end-to-end benchmark captures.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` holds the parent's runs and ``B`` the change's, one capture per line
as written by ``run.py --out``.  Run i of A is paired with run i of B, so
alternate which side runs first and give both sides the same seeds.

One row per workload and end-to-end metric shows each side's median and
quartiles over its runs, the share of pairs the change won (ties count for
neither) and a verdict:

* ``improved``   -- the change won at least 9 of 10 pairs (at least ten
  pairs run) and the medians differ by more than the parent's
  interquartile range;
* ``worse``      -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the parent's own spread is wider than the bound, and
  not every run of the change beats every run of the parent;
* ``unchanged``  -- otherwise.

Simulated outputs must match exactly between runs of the same seed.  For
traced captures the per-layer self times are compared too, so that a
regression names the layer it came from.  Exits 1 when any verdict is
``worse`` or any simulated output differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values):
    """(q1, median, q3) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """Verdict for one metric; ``parent``/``change`` are paired run values."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    q1, parent_median, q3 = spread(parent)
    change_median = statistics.median(change)
    gap = sign * (change_median - parent_median)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > q3 - q1:
        return "improved", wins, len(pairs)
    if (q3 - q1) > bound * abs(parent_median):
        every = min(sign * b for b in change) > max(sign * a for a in parent)
        return ("improved" if every else "unresolved"), wins, len(pairs)
    if -gap > bound * abs(parent_median):
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def value(run, workload, name):
    return run["workloads"][workload].get("metrics", {}).get(name)


def layer_medians(runs, workload):
    """Layer -> median self seconds per traced sample at the reference
    host speed, over all runs."""
    samples = defaultdict(list)
    for run in runs:
        for sample in run["workloads"].get(workload, {}).get("layers", []):
            scale = sample["host_s"] / sample["wall_s"]
            totals = defaultdict(float)
            for layer, _caller, seconds, _calls in sample["pairs"]:
                totals[layer] += seconds * scale
            for layer, seconds in totals.items():
                samples[layer].append(seconds)
    return {layer: statistics.median(values) for layer, values in samples.items()}


def compare(parent_runs, change_runs, spec, out=sys.stdout) -> bool:
    """Print the comparison; return True when nothing regressed."""
    clean = True
    metrics = spec["end_to_end"]
    workloads = [
        w["name"] for w in spec["workloads"]
        if all(w["name"] in run["workloads"] for run in parent_runs + change_runs)
    ]
    for workload in workloads:
        print(f"{workload} ({len(parent_runs)} vs {len(change_runs)} runs)", file=out)
        for metric in metrics:
            name = metric["name"]
            parent = [value(run, workload, name) for run in parent_runs]
            change = [value(run, workload, name) for run in change_runs]
            if None in parent or None in change:
                continue  # traced, or no sample completed
            result, wins, pairs = verdict(
                parent, change, metric["better"], metric["bound"]
            )
            clean &= result != "worse"
            a, b = spread(parent), spread(change)
            print(
                f"  {name:<12s} A {a[1]:.5g} [{a[0]:.5g}, {a[2]:.5g}]  "
                f"B {b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]  "
                f"wins {wins}/{pairs}  {result} (bound {metric['bound']:.0%})",
                file=out,
            )
        sims = defaultdict(dict)
        for side, runs in (("A", parent_runs), ("B", change_runs)):
            for run in runs:
                sims[run["seed"]].setdefault(side, run["workloads"][workload]["sim"])
        for seed, sides in sorted(sims.items()):
            if len(sides) == 2 and sides["A"] != sides["B"]:
                clean = False
                keys = sorted(k for k in sides["A"] if sides["A"][k] != sides["B"].get(k))
                print(f"  seed {seed}: simulated outputs differ in {keys}", file=out)
        before = layer_medians(parent_runs, workload)
        after = layer_medians(change_runs, workload)
        if before and after:
            layers = sorted(
                set(before) | set(after),
                key=lambda layer: -abs(after.get(layer, 0.0) - before.get(layer, 0.0)),
            )
            for layer in layers:
                a, b = before.get(layer, 0.0), after.get(layer, 0.0)
                ratio = f"{(b - a) / a:+.1%}" if a else "new"
                print(f"  layer {layer:<18s} {a * 1e3:9.2f} -> {b * 1e3:9.2f} ms "
                      f"({ratio})", file=out)
    return clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", help="captures of the parent (A)")
    parser.add_argument("change", help="captures of the change (B)")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    return 0 if compare(load(args.parent), load(args.change), spec) else 1


if __name__ == "__main__":
    sys.exit(main())
