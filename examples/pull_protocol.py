"""The pull primitive inside a simulated iteration (paper §6).

Janus builds its data-centric communication from one pull: the requester
sends a request to the expert's home machine through the socket, and the
home machine sends the expert back over RDMA.  In the simulator that pull
is the Inter-Node Scheduler's fetch chain: each machine runs one chain per
NIC, and each chain issues its pulls one after another, so the request and
payload of a pull show up as one ``comm.fetch`` span.

The example runs one 2-machine data-centric MoE-GPT iteration and prints
machine 0's fetch spans.  It then reruns the iteration with 30% of the pull
requests lost.  A lost request is caught by the retry loop's timer and
re-sent with a longer timeout; a pull that loses every attempt falls back
to the stale cached copy of its expert for this iteration.

Run:  python examples/pull_protocol.py
"""

from repro.cluster import Cluster
from repro.config import moe_gpt
from repro.core import build_workload, engine_for
from repro.faults import FaultPlan

# Seed 1 of this plan loses all four attempts of one pull.
LOSSY = "seed=1;loss=pull-request*0.3"
MACHINE = 0
SHOWN = 6


def run(fault_plan=None):
    config = moe_gpt(16)
    cluster = Cluster(num_machines=2)
    workload = build_workload(config, cluster)
    engine = engine_for(
        "data-centric", config, cluster, workload=workload,
        fault_plan=fault_plan,
    )
    return engine.run_iteration()


def fetch_spans(result):
    return [
        span for span in result.trace.spans_of("comm.fetch")
        if span.detail.startswith(f"machine={MACHINE} ")
    ]


def show_fetches(spans):
    for span in spans[:SHOWN]:
        print(f"  block {span.block:2d} {span.detail:28s} "
              f"{span.start * 1e3:6.3f} -> {span.end * 1e3:6.3f} ms "
              f"({span.duration * 1e3:.3f} ms)")
    if len(spans) > SHOWN:
        print(f"  ... {len(spans) - SHOWN} more")


def main():
    clean = run()
    spans = fetch_spans(clean)
    print(f"sequential fine-grained pulls of machine {MACHINE} "
          f"(one fetch chain per NIC, one pull in flight on each):")
    show_fetches(spans)
    print(f"  {len(spans)} pulls, iteration {clean.seconds * 1e3:.2f} ms")
    print(f"cross-machine bytes moved: "
          f"{clean.nic_egress_bytes.sum() / 1e6:.1f} MB")

    lossy = run(FaultPlan.parse(LOSSY))
    stats = lossy.fault_stats
    print(f"\nthe same iteration with {LOSSY!r}:")
    show_fetches(fetch_spans(lossy))
    for kind in ("fault.retry", "fault.fallback"):
        for span in lossy.trace.spans_of(kind):
            print(f"  {kind:14s} at {span.start * 1e3:6.3f} ms  "
                  f"block {span.block:2d} {span.detail}")
    print(f"  {stats.dropped_messages} requests dropped, "
          f"{stats.retries} retries, "
          f"{stats.stale_fallbacks} stale fallback(s); "
          f"iteration {lossy.seconds * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
