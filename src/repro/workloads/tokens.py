"""Synthetic workload generation.

Only the *shape* of the data matters for communication behaviour: how many
tokens each worker produces and how the gate spreads them over experts.
These generators produce per-worker token batches for the functional runtime
and expert-assignment histograms for the timed engines, with controllable
skew to reproduce the paper's imbalance observation (§3.1).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config import ModelConfig
from ..domains import NON_NEGATIVE, POSITIVE_INT

__all__ = [
    "token_batches",
    "target_batches",
    "balanced_assignment",
    "assignment_imbalance",
    "zipf_law",
]


def token_batches(
    config: ModelConfig,
    world_size: int,
    batch_size: Optional[int] = None,
    seq_len: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """One (batch, seq) int token array per worker."""
    rng = rng if rng is not None else np.random.default_rng()
    batch = batch_size if batch_size is not None else config.batch_size
    seq = seq_len if seq_len is not None else config.seq_len
    return [
        rng.integers(0, config.vocab_size, size=(batch, seq))
        for _ in range(world_size)
    ]


def target_batches(
    config: ModelConfig,
    world_size: int,
    batch_size: Optional[int] = None,
    seq_len: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """Matching per-worker target arrays for language-model loss."""
    return token_batches(config, world_size, batch_size, seq_len, rng)


def balanced_assignment(num_slots: int, num_experts: int) -> np.ndarray:
    """Token-slot counts per expert under perfectly balanced routing."""
    POSITIVE_INT.check("num_experts", num_experts)
    base = num_slots // num_experts
    counts = np.full(num_experts, base, dtype=np.int64)
    counts[: num_slots % num_experts] += 1
    return counts


def zipf_law(num_ranks: int, skew: float) -> np.ndarray:
    """Normalized Zipf weights over popularity ranks: ``weight_r`` is
    proportional to ``1 / (r + 1) ** skew``, hottest rank first."""
    weights = 1.0 / np.arange(1, num_ranks + 1, dtype=float) ** skew
    return weights / weights.sum()


def zipf_weights(
    num_experts: int,
    skew: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Normalized Zipf popularity over experts, hot index randomized.

    Use one weight vector per MoE block so all workers overload the *same*
    hot experts — the cluster-wide imbalance §3.1 describes.
    """
    NON_NEGATIVE.check("skew", skew)
    rng = rng if rng is not None else np.random.default_rng()
    weights = zipf_law(num_experts, skew)
    rng.shuffle(weights)
    return weights


def assignment_imbalance(counts: np.ndarray) -> float:
    """max/mean load ratio; 1.0 means perfectly balanced."""
    counts = np.asarray(counts, dtype=float)
    if counts.sum() == 0:
        return 1.0
    return float(counts.max() / counts.mean())
