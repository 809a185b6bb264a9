"""Tests for the per-GPU memory model (Fig. 16's OOM behaviour)."""

import pytest

from repro.config import moe_bert, moe_gpt, moe_transformer_xl
from repro.core import estimate_strategies
from repro.core.memory_model import MemoryEstimate, check_fits
from repro.netsim import OutOfMemoryError
from repro.units import GIB

A100 = 80 * GIB


def estimate_mixed(config, world_size, ec_blocks, dc_blocks):
    """Some MoE blocks expert-centric, the rest data-centric (§7.5)."""
    return estimate_strategies(
        config, world_size,
        {"expert-centric": ec_blocks, "data-centric": dc_blocks},
    )


def estimate_expert_centric(config, world_size):
    return estimate_mixed(config, world_size, config.num_moe_blocks, 0)


def estimate_data_centric(config, world_size):
    return estimate_mixed(config, world_size, 0, config.num_moe_blocks)


def seq_sensitivity_config(factory, seq_len):
    """The §7.4 sequence-length sweep configs."""
    if factory is moe_bert:
        return factory(32).scaled(batch_size=256, seq_len=seq_len, top_k=4)
    if factory is moe_gpt:
        return factory(32).scaled(batch_size=32, seq_len=seq_len, top_k=8)
    return factory(32).scaled(batch_size=64, seq_len=seq_len, top_k=2)


class TestFig16OOMBoundary:
    def test_tutel_ooms_on_moe_bert_s512(self):
        """Fig. 16: expert-centric runs out of GPU memory at MoE-BERT S=512."""
        config = seq_sensitivity_config(moe_bert, 512)
        estimate = estimate_expert_centric(config, 32)
        assert estimate.total > A100
        with pytest.raises(OutOfMemoryError):
            check_fits(estimate, A100)

    def test_janus_fits_on_moe_bert_s512(self):
        """...while data-centric Janus trains the same config fine."""
        config = seq_sensitivity_config(moe_bert, 512)
        estimate = estimate_data_centric(config, 32)
        assert estimate.total < A100
        check_fits(estimate, A100)

    def test_both_fit_on_moe_bert_s256(self):
        config = seq_sensitivity_config(moe_bert, 256)
        assert estimate_expert_centric(config, 32).total < A100
        assert estimate_data_centric(config, 32).total < A100

    @pytest.mark.parametrize("factory", [moe_gpt, moe_transformer_xl])
    @pytest.mark.parametrize("seq_len", [256, 512])
    def test_other_models_fit_everywhere(self, factory, seq_len):
        config = seq_sensitivity_config(factory, seq_len)
        assert estimate_expert_centric(config, 32).total < A100
        assert estimate_data_centric(config, 32).total < A100

    @pytest.mark.parametrize(
        "factory", [moe_bert, moe_gpt, moe_transformer_xl]
    )
    def test_table1_configs_fit(self, factory):
        config = factory(32)
        assert estimate_expert_centric(config, 32).total < A100
        assert estimate_data_centric(config, 32).total < A100


class TestCheckFits:
    def test_oom_names_the_first_term_that_does_not_fit(self):
        estimate = MemoryEstimate(
            weights=0.5 * GIB, activations=0.25 * GIB,
            moe_stash=0.5 * GIB, paradigm_extra=2 * GIB,
        )
        with pytest.raises(OutOfMemoryError) as exc_info:
            check_fits(estimate, GIB)
        error = exc_info.value
        assert error.requested == 0.5 * GIB
        assert error.available == 0.25 * GIB
        assert error.capacity == GIB
        assert str(error) == (
            "out of memory: requested 0.54 GB with only 0.27 GB free of "
            "1.07 GB"
        )


class TestEstimateStructure:
    def test_dc_extra_independent_of_seq_scaling_vs_ec(self):
        """EC's paradigm overhead grows with token volume; DC's stays tied
        to expert size (the mechanism behind the OOM asymmetry)."""
        short = seq_sensitivity_config(moe_bert, 256)
        long = seq_sensitivity_config(moe_bert, 512)
        ec_growth = (
            estimate_expert_centric(long, 32).paradigm_extra
            / estimate_expert_centric(short, 32).paradigm_extra
        )
        dc_growth = (
            estimate_data_centric(long, 32).paradigm_extra
            / estimate_data_centric(short, 32).paradigm_extra
        )
        assert ec_growth == pytest.approx(2.0)
        assert dc_growth < ec_growth

    def test_mixed_interpolates(self):
        config = moe_bert(32)
        ec = estimate_mixed(config, 32, 4, 0).total
        dc = estimate_mixed(config, 32, 0, 4).total
        mixed = estimate_mixed(config, 32, 2, 2).total
        assert dc < mixed < ec

    def test_mixed_requires_full_coverage(self):
        with pytest.raises(ValueError):
            estimate_mixed(moe_bert(32), 32, 1, 1)

    def test_total_is_sum_of_parts(self):
        estimate = estimate_expert_centric(moe_gpt(32), 32)
        assert estimate.total == pytest.approx(
            estimate.weights
            + estimate.activations
            + estimate.moe_stash
            + estimate.paradigm_extra
        )

    def test_weights_grow_with_local_experts(self):
        few = estimate_data_centric(moe_bert(32), 32).weights
        many = estimate_data_centric(moe_bert(32), 8).weights
        assert many > few
