"""Scalability sweep: machines 2 → 4 → 8 (the §7.5 scaling observation).

Eq. 1's gain ratio falls with the number of machines n (more machines means
more cross-node token traffic per machine under expert-centric, but also
more expert broadcast targets under data-centric).  We sweep MoE-GPT over
cluster sizes with a fixed per-worker batch (weak scaling) and check:

* iteration time grows with the cluster in both paradigms (more cross-node
  communication per machine);
* data-centric keeps winning at every scale (R stays well above 1 here);
* per-machine cross-node traffic follows the closed forms' (n-1) and
  (n-1)/n scalings.
"""

import pytest

from engine_cache import write_report
from repro.analysis import format_table
from repro.cluster import Cluster
from repro.config import moe_gpt
from repro.core import (
    build_workload,
    comm_data_centric,
    engine_for,
    gain_ratio,
)

MACHINES = (2, 4, 8)


def run_sweep():
    results = {}
    for machines in MACHINES:
        config = moe_gpt(machines * 8)  # keep E = 1 per worker
        cluster = Cluster(machines)
        workload = build_workload(config, cluster)
        ec = engine_for(
            "expert-centric", config, cluster, workload=workload
        ).run_iteration()
        dc = engine_for(
            "data-centric", config, cluster, workload=workload
        ).run_iteration()
        results[machines] = (config, ec, dc)
    return results


def test_scalability(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for machines, (config, ec, dc) in results.items():
        ratio = gain_ratio(
            config.batch_size, config.seq_len, config.top_k,
            machines, config.hidden_dim, 1,
        )
        rows.append([
            machines * 8,
            f"{ratio:.2f}",
            f"{ec.seconds * 1e3:.1f}",
            f"{dc.seconds * 1e3:.1f}",
            f"{ec.seconds / dc.seconds:.2f}x",
            f"{dc.cross_node_gb_per_machine:.2f}",
        ])
    write_report(
        "scalability.txt",
        format_table(
            ["GPUs", "R", "EC (ms)", "DC (ms)", "speedup", "DC GB/machine"],
            rows,
            title="Weak-scaling sweep on MoE-GPT (experts = world size)",
        ),
    )

    times_ec = [results[m][1].seconds for m in MACHINES]
    times_dc = [results[m][2].seconds for m in MACHINES]
    # Cross-node load per machine grows with n, so iteration time does too.
    assert times_ec == sorted(times_ec)
    assert times_dc == sorted(times_dc)
    # Data-centric wins at every scale here (R = 21.3 / 10.7 / 5.3 > 1).
    for ec_time, dc_time in zip(times_ec, times_dc):
        assert dc_time < ec_time

    # Measured DC traffic follows Comm_DC's (n-1) scaling exactly.
    for machines, (config, _, dc) in results.items():
        expected = (
            comm_data_centric(config.hidden_dim, 1, 8, machines)
            * config.num_moe_blocks
            * 2  # pulls + gradient returns
            / 1e9
        )
        assert dc.cross_node_gb_per_machine == pytest.approx(
            expected, rel=1e-6
        )
