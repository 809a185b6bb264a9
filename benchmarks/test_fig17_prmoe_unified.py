"""Fig. 17: unified Janus on PR-MoE-Transformer-xl.

§7.5: PR-MoE has shallow MoE blocks with few experts (E=1, high R — data-
centric wins) and deep MoE blocks with many experts (E=4, low R — expert-
centric wins).  Janus unifies both: it runs the shallow blocks data-centric
and the deep blocks expert-centric, beating both pure paradigms.  The paper
reports 2.06x / 1.44x speedup over pure expert-centric on the 16-GPU /
32-GPU clusters, with the gain shrinking as machines are added (R falls
with n, Eq. 1).
"""

from engine_cache import run_pr_moe, write_report
from repro.analysis import format_table

MODES = ("expert-centric", "data-centric", "unified")


def run_pr_sweep():
    results = {}
    for scale, gpus in ((1, 16), (2, 32)):
        for mode in MODES:
            results[(gpus, mode)] = run_pr_moe(scale, mode)
    return results


def test_fig17_prmoe_unified(benchmark):
    results = benchmark.pedantic(run_pr_sweep, rounds=1, iterations=1)

    rows = []
    for (gpus, mode), result in results.items():
        baseline = results[(gpus, "expert-centric")].seconds
        rows.append(
            [
                gpus,
                mode,
                f"{result.seconds * 1e3:.1f}",
                f"{baseline / result.seconds:.2f}x",
            ]
        )
    write_report(
        "fig17_prmoe_unified.txt",
        format_table(
            ["GPUs", "Paradigm", "Iter (ms)", "vs expert-centric"],
            rows,
            title="Fig. 17: PR-MoE-Transformer-xl under pure and unified "
            "paradigms (paper: unified 2.06x / 1.44x)",
        ),
    )

    for gpus in (16, 32):
        ec = results[(gpus, "expert-centric")].seconds
        dc = results[(gpus, "data-centric")].seconds
        unified = results[(gpus, "unified")].seconds
        # The paper's core claim: unified beats (or matches) both pure
        # paradigms on the mixed-R model...
        assert unified <= ec * 1.01
        assert unified <= dc * 1.01
        # ...and genuinely improves on the expert-centric baseline.  (The
        # magnitude is smaller than the paper's 2.06x/1.44x: the simulated
        # All-to-All runs near NIC line rate while the paper's testbed
        # measured ~51% goodput, so our expert-centric baseline is
        # relatively stronger — see EXPERIMENTS.md.)
        assert ec / unified > 1.04

    # The unified paradigm map mixes both paradigms: shallow E=1 blocks
    # data-centric, deep E=4 blocks expert-centric (§7.5).
    for gpus in (16, 32):
        unified = results[(gpus, "unified")]
        names = [unified.strategies[b] for b in sorted(unified.strategies)]
        assert names[:2] == ["data-centric"] * 2
        assert names[2:] == ["expert-centric"] * 2

    # Iteration time grows with the cluster size in every mode (the paper's
    # scalability observation).
    for mode in MODES:
        assert results[(32, mode)].seconds > results[(16, mode)].seconds
