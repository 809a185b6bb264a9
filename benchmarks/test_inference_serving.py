"""§9 extension: forward-only (serving) passes across every strategy.

The paper argues the same communication design applies to inference.  A
forward-only pass halves the data-centric wire bill (no gradient returns)
and drops the backward All-to-Alls of the expert-centric family; the
paradigm comparison carries over.  Parametrized over every strategy
name.
"""

import pytest

from engine_cache import run_model, write_report
from repro.analysis import format_table
from repro.core import get_strategy, strategy_names

STRATEGIES = strategy_names()


def _pair(mode):
    """(training iteration, forward-only pass) — cached across tests."""
    return (
        run_model("MoE-GPT", mode),
        run_model("MoE-GPT", mode, inference=True),
    )


@pytest.mark.parametrize("mode", STRATEGIES)
def test_forward_pass_cheaper_than_training(mode):
    training, inference = _pair(mode)
    # A forward pass is much cheaper than a training iteration (backward
    # compute is 2x forward plus gradient communication).
    assert inference.seconds < 0.6 * training.seconds


@pytest.mark.parametrize("mode", STRATEGIES)
def test_forward_wire_bill(mode):
    training, inference = _pair(mode)
    moved = inference.nic_egress_bytes.sum()
    if get_strategy(mode).uses_task_queue:
        # Pulls only, no gradient pushes: exactly half the training bill.
        assert moved == pytest.approx(
            training.nic_egress_bytes.sum() / 2
        )
    else:
        # The expert-centric family drops its backward All-to-Alls.
        assert moved < training.nic_egress_bytes.sum()


def test_inference_serving(benchmark):
    results = benchmark.pedantic(
        lambda: {mode: _pair(mode) for mode in STRATEGIES},
        rounds=1, iterations=1,
    )

    rows = []
    for label, (training, inference) in results.items():
        rows.append([
            label,
            f"{training.seconds * 1e3:.1f}",
            f"{inference.seconds * 1e3:.1f}",
            f"{inference.cross_node_gb_per_machine:.2f}",
        ])
    write_report(
        "inference_serving.txt",
        format_table(
            ["Paradigm", "train iter (ms)", "forward pass (ms)",
             "fwd GB/machine"],
            rows,
            title="Forward-only (serving) passes on MoE-GPT (§9)",
        ),
    )

    # Data-centric keeps winning at inference time.
    ec_infer = results["expert-centric"][1]
    dc_infer = results["data-centric"][1]
    assert dc_infer.seconds < ec_infer.seconds
