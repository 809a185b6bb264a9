"""Tests for model configurations (Table 1 and §7.5)."""

import pytest

from repro.config import (
    ModelConfig,
    moe_bert,
    moe_gpt,
    moe_transformer_xl,
    pr_moe_transformer_xl,
)
from repro.core import JanusFeatures


class TestTable1Configs:
    def test_moe_bert_matches_table1(self):
        config = moe_bert(32)
        assert config.batch_size == 256
        assert config.seq_len == 128
        assert config.top_k == 2
        assert config.hidden_dim == 768
        assert config.num_blocks == 12
        assert config.num_moe_blocks == 4
        assert all(config.num_experts(i) == 32 for i in config.moe_block_indices)
        assert not config.causal

    def test_moe_bert_blocks_are_2_5_8_11(self):
        # Paper §7.1: the 2nd, 5th, 8th and 11th blocks are MoE blocks.
        assert moe_bert().moe_block_indices == (1, 4, 7, 10)

    def test_moe_gpt_matches_table1(self):
        config = moe_gpt(16)
        assert (config.batch_size, config.seq_len, config.top_k) == (256, 64, 4)
        assert config.hidden_dim == 768
        assert config.moe_block_indices == (10,)
        assert config.num_experts(10) == 16
        assert config.causal

    def test_moe_transformer_xl_matches_table1(self):
        config = moe_transformer_xl(32)
        assert (config.batch_size, config.seq_len, config.top_k) == (64, 512, 2)
        assert config.hidden_dim == 256
        assert config.num_moe_blocks == 12
        assert config.causal

    def test_tokens_per_worker_is_bsk(self):
        config = moe_bert()
        assert config.tokens_per_worker == 256 * 128 * 2

    def test_expert_param_count_is_8h_squared(self):
        config = moe_transformer_xl()
        assert config.expert_param_count == 8 * 256 * 256


class TestPRMoE:
    def test_scale1_layout(self):
        config = pr_moe_transformer_xl(1)
        experts = [config.num_experts(i) for i in config.moe_block_indices]
        assert experts == [16, 16, 64, 64]
        assert config.batch_size == 32

    def test_scale2_layout(self):
        config = pr_moe_transformer_xl(2)
        experts = [config.num_experts(i) for i in config.moe_block_indices]
        assert experts == [32, 32, 128, 128]
        assert config.batch_size == 64

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            pr_moe_transformer_xl(3)

    def test_experts_per_worker_varies_by_block(self):
        config = pr_moe_transformer_xl(1)
        indices = config.moe_block_indices
        assert config.experts_per_worker(indices[0], 16) == 1
        assert config.experts_per_worker(indices[-1], 16) == 4


class TestValidation:
    def test_uneven_expert_split_rejected(self):
        config = moe_bert(32)
        with pytest.raises(ValueError):
            config.experts_per_worker(1, 24)

    def test_topk_exceeding_experts_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="bad", batch_size=1, seq_len=1, top_k=4,
                hidden_dim=8, num_blocks=1, experts_per_block={0: 2},
            )

    def test_moe_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="bad", batch_size=1, seq_len=1, top_k=1,
                hidden_dim=8, num_blocks=2, experts_per_block={5: 4},
            )

    def test_hidden_not_divisible_by_heads_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="bad", batch_size=1, seq_len=1, top_k=1,
                hidden_dim=10, num_blocks=1, num_heads=4,
            )

    def test_zero_heads_is_refused_before_the_divisibility_rule(self):
        # ``hidden_dim % 0`` raised ZeroDivisionError.
        with pytest.raises(ValueError, match=r"^num_heads must be .*ModelConfig"):
            moe_gpt().scaled(num_heads=0)

    @pytest.mark.parametrize("make, pattern", [
        (lambda: moe_gpt().scaled(experts_per_block={1.5: 32}),
         r"^experts_per_block index must be .*1\.5 \(ModelConfig\)$"),
        (lambda: moe_gpt().scaled(experts_per_block={True: 32}),
         r"^experts_per_block index must be .*True \(ModelConfig\)$"),
        (lambda: moe_gpt().scaled(experts_per_block={10: 32.0}),
         r"^experts_per_block\[10\] must be .*32\.0 \(ModelConfig\)$"),
        (lambda: JanusFeatures(block_chunks={-1: 2}),
         r"^block_chunks index must be .*-1 \(JanusFeatures\)$"),
        (lambda: JanusFeatures(block_chunks={1.5: 2}),
         r"^block_chunks index must be .*1\.5 \(JanusFeatures\)$"),
        (lambda: JanusFeatures(block_chunks={True: 2}),
         r"^block_chunks index must be .*True \(JanusFeatures\)$"),
        (lambda: JanusFeatures(block_chunks=((3, True),)),
         r"^block_chunks\[3\] must be .*True \(JanusFeatures\)$"),
    ], ids=["experts-fraction", "experts-bool", "experts-float-count",
            "chunks-negative", "chunks-fraction", "chunks-bool",
            "chunks-bool-count"])
    def test_block_maps_refuse_a_bad_index_or_count(self, make, pattern):
        """A block index is a non-negative integer and a per-block count a
        positive one; ``chunks_for`` silently ignored a ``-1`` override."""
        with pytest.raises(ValueError, match=pattern):
            make()

    def test_scaled_overrides(self):
        config = moe_bert().scaled(batch_size=64, seq_len=512)
        assert config.batch_size == 64
        assert config.seq_len == 512
        assert config.hidden_dim == 768
