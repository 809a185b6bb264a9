"""Tests for the distributed trainer and checkpointing."""

import numpy as np
import pytest

from repro.runtime import DistributedMoETransformer, RankLayout
from repro.runtime.trainer import DistributedTrainer
from repro.tensorlib import Adam
from repro.workloads import target_batches, token_batches

RNG = np.random.default_rng(4)


from tests.conftest import tiny_model_config  # noqa: E402


def tiny_config():
    return tiny_model_config(name="trainer-test", batch_size=3, vocab_size=48)


def make_trainer(paradigm="data-centric"):
    config = tiny_config()
    layout = RankLayout(2, 2)
    model = DistributedMoETransformer(
        config, layout,
        paradigm_for_block={1: paradigm},
        rng=np.random.default_rng(1),
    )
    optimizer = Adam(model.parameters(), lr=3e-3)
    return config, layout, model, DistributedTrainer(model, optimizer)


def make_batch(config, layout, seed):
    rng = np.random.default_rng(seed)
    return (
        token_batches(config, layout.world_size, rng=rng),
        target_batches(config, layout.world_size, rng=rng),
    )


class TestTrainer:
    def test_loss_decreases_on_fixed_batch(self):
        config, layout, model, trainer = make_trainer()
        tokens, targets = make_batch(config, layout, seed=0)
        first = trainer.step(tokens, targets).loss
        for _ in range(7):
            last = trainer.step(tokens, targets).loss
        assert last < first
        assert trainer.step_count == 8
        assert trainer.last_loss == last

    def test_metrics_record_traffic_per_step(self):
        config, layout, model, trainer = make_trainer()
        tokens, targets = make_batch(config, layout, seed=0)
        first = trainer.step(tokens, targets)
        second = trainer.step(tokens, targets)
        assert first.cross_machine_bytes > 0
        # Per-step traffic is constant across steps (same routing scale).
        assert second.cross_machine_bytes == pytest.approx(
            first.cross_machine_bytes, rel=0.5
        )

    def test_paradigms_train_identically(self):
        results = {}
        for paradigm in ("expert-centric", "data-centric"):
            config, layout, model, trainer = make_trainer(paradigm)
            tokens, targets = make_batch(config, layout, seed=0)
            for _ in range(3):
                metrics = trainer.step(tokens, targets)
            results[paradigm] = metrics.loss
        assert results["expert-centric"] == pytest.approx(
            results["data-centric"], abs=1e-9
        )

class TestModelStateDict:
    def test_round_trip_preserves_forward(self):
        config = tiny_config()
        layout = RankLayout(2, 2)
        src = DistributedMoETransformer(
            config, layout, paradigm_for_block={1: "data-centric"},
            rng=np.random.default_rng(1),
        )
        dst = DistributedMoETransformer(
            config, layout, paradigm_for_block={1: "expert-centric"},
            rng=np.random.default_rng(2),
        )
        dst.load_state_dict(src.state_dict())
        batches = token_batches(config, 4, rng=np.random.default_rng(3))
        for a, b in zip(src.forward(batches), dst.forward(batches)):
            np.testing.assert_allclose(a.numpy(), b.numpy(), atol=1e-10)

    def test_state_dict_keys_are_disjoint_per_block(self):
        config = tiny_config()
        model = DistributedMoETransformer(
            config, RankLayout(2, 2), rng=np.random.default_rng(1)
        )
        state = model.state_dict()
        assert any(key.startswith("block1.moe.") for key in state)
        assert any(key.startswith("block0.") for key in state)
        assert len(state) == len(set(state))
