"""Simulate MoE training on the paper's 32-A100 cluster.

Runs one training iteration of MoE-GPT (Table 1, 32 experts) through the
timed engines — expert-centric baseline, then data-centric Janus with the
optimizations stacked one by one — and prints the Fig. 12-style ablation
plus a Fig. 13-style forward timeline showing prefetch hiding the expert
pulls behind dense compute.

Run:  python examples/simulate_cluster_training.py
"""

from repro.analysis import format_speedup_bars, format_table
from repro.cluster import Cluster
from repro.config import moe_gpt
from repro.core import (
    JanusFeatures,
    build_workload,
    engine_for,
)


def main():
    config = moe_gpt(32)
    cluster = Cluster(num_machines=4)
    workload = build_workload(config, cluster)
    print(f"model: {config.name}  cluster: 4 machines x 8 A100  "
          f"tokens/worker: {config.tokens_per_worker}")

    baseline = engine_for(
        "expert-centric", config, cluster, workload=workload
    ).run_iteration()
    print(f"\nexpert-centric baseline: {baseline.seconds * 1e3:.1f} ms/iter "
          f"({baseline.all_to_all_share:.0%} in All-to-All, "
          f"{baseline.cross_node_gb_per_machine:.2f} GB/machine cross-node)")

    variants = [
        ("data-centric", JanusFeatures(topology_aware=False, prefetch=False)),
        ("+ topology-aware", JanusFeatures(topology_aware=True, prefetch=False)),
        ("+ prefetch", JanusFeatures(topology_aware=True, prefetch=True)),
    ]
    labels, speedups = [], []
    final = None
    for label, features in variants:
        result = engine_for(
            "data-centric", config, cluster, workload=workload, features=features
        ).run_iteration()
        labels.append(label)
        speedups.append(baseline.seconds / result.seconds)
        final = result
    print("\n" + format_speedup_bars(
        labels, speedups, title="ablation (speedup over expert-centric):"
    ))
    print(f"\nJanus cross-node traffic: "
          f"{final.cross_node_gb_per_machine:.2f} GB/machine "
          f"({baseline.cross_node_gb_per_machine / final.cross_node_gb_per_machine:.1f}x reduction)")

    completions = final.trace.block_completions(worker=0)
    arrivals = [e["time"] for e in final.trace.expert_arrivals(worker=0)]
    rows = [
        [block, f"{time * 1e3:6.2f}"]
        for block, time in sorted(completions.items())
    ]
    print("\n" + format_table(
        ["Block", "done (ms)"], rows,
        title="forward timeline, worker 0 (block 10 is the MoE block):",
    ))
    hidden = sum(1 for t in arrivals if t <= completions[9])
    print(f"expert pulls finished before the MoE block: "
          f"{hidden}/{len(arrivals)} — prefetch hides the fetch time.")

    from repro.trace import render_timeline

    print("\nworker-0 activity timeline (D=dense, E=experts, *=events):")
    print(render_timeline(final.trace, lanes=["compute.dense", "compute.expert"],
                          width=76, worker=0))


if __name__ == "__main__":
    main()
