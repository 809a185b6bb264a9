"""Paradigm planner: the §5.1.3 analysis as a capacity-planning tool.

Given a model configuration and a cluster shape, prints per-MoE-block:
the gain ratio R, the paradigm Janus would select, the cross-node traffic
under both paradigms, and the per-GPU memory estimate with OOM warnings —
everything a user would want to know before launching a training job.

Run:  python examples/paradigm_planner.py
"""

from repro.analysis import format_table
from repro.config import moe_bert, moe_gpt, moe_transformer_xl, pr_moe_transformer_xl
from repro.core import estimate_strategies, profile_model
from repro.units import GIB


def plan(config, num_machines, workers_per_machine=8):
    world = num_machines * workers_per_machine
    print(f"\n=== {config.name} on {num_machines}x{workers_per_machine} GPUs "
          f"(B={config.batch_size}, S={config.seq_len}, k={config.top_k}, "
          f"H={config.hidden_dim}) ===")

    rows = []
    for profile in profile_model(config, num_machines, workers_per_machine):
        rows.append(
            [
                profile.block_index,
                profile.num_experts,
                profile.experts_per_worker,
                f"{profile.ratio:.2f}",
                profile.paradigm.value,
                f"{profile.expert_centric_bytes / 1e9:.2f}",
                f"{profile.data_centric_bytes / 1e9:.2f}",
            ]
        )
    print(format_table(
        ["Block", "#Experts", "E", "R", "Paradigm", "EC GB/mach", "DC GB/mach"],
        rows,
    ))

    for label in ("expert-centric", "data-centric"):
        estimate = estimate_strategies(
            config, world, {label: config.num_moe_blocks}
        )
        verdict = "OOM on 80GB A100!" if estimate.total > 80 * GIB else "fits"
        print(f"memory/{label}: {estimate.total / GIB:6.1f} GiB  ({verdict})")


def sweep_heatmap():
    """Where does data-centric win?  R over a (B, S) grid (Eq. 1)."""
    from repro.analysis import r_grid, render_r_heatmap

    batches = [8, 32, 128, 512]
    seqs = [64, 256, 1024, 4096]
    grid = r_grid(batches, seqs, top_k=2, num_machines=4,
                  hidden_dim=768, experts_per_worker=1)
    print("\n=== paradigm map for H=768, k=2, E=1, 4 machines ===")
    print(render_r_heatmap(grid, batches, seqs))


def main():
    plan(moe_bert(32), num_machines=4)
    plan(moe_gpt(32), num_machines=4)
    plan(moe_transformer_xl(32), num_machines=4)
    # The mixed-R model from §7.5: Janus splits paradigms per block.
    plan(pr_moe_transformer_xl(1), num_machines=2)
    # The §7.4 OOM case: long sequences blow up the All-to-All buffers.
    plan(moe_bert(32).scaled(seq_len=512, top_k=4), num_machines=4)
    sweep_heatmap()


if __name__ == "__main__":
    main()
