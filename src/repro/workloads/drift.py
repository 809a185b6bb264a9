"""Drifting expert-popularity generators.

Real MoE traffic does not hold the §3.1 imbalance still: expert popularity
drifts as the corpus mix shifts, transient hotspots appear and heal, and the
hot-expert *identity* migrates.  A :class:`DriftSpec` describes one seeded
popularity process; :func:`drift_weights` evaluates it as a pure function of
``(spec, num_experts, iteration, block_index)`` so every component — the
workload regenerator, the controller's tests — sees the same trajectory
without shared mutable state.

Kinds:

* ``static`` — a fixed Zipf popularity (hot identity set by the seed); the
  degenerate case used to prove drift-off runs are bit-identical.
* ``flip``   — the skew oscillates between ``low_skew`` (default: balanced)
  and ``skew`` every ``period`` iterations: regime drift, where the best
  paradigm itself changes (Eq. 1's inputs are stable but its balanced-routing
  assumption breaks every other phase).
* ``rotate`` — fixed Zipf skew, but the hot-expert identity shifts by
  ``shift`` positions every ``period`` iterations: a moving hotspot, the
  placement/replication stressor.
* ``walk``   — the log-popularities follow a seeded Gaussian random walk with
  per-iteration step ``step``: smooth organic drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..clauses import parse_clauses
from ..domains import NON_NEGATIVE, NON_NEGATIVE_INT, POSITIVE_INT, Choice, check_fields, domain
from .tokens import zipf_law

__all__ = ["DriftSpec", "drift_weights", "apply_drift"]


@dataclass(frozen=True)
class DriftSpec:
    """One seeded expert-popularity drift process (see module docstring)."""

    kind: str = domain(Choice(("static", "flip", "rotate", "walk")), "flip")
    skew: float = domain(NON_NEGATIVE, 1.5)
    low_skew: float = domain(NON_NEGATIVE, 0.0)
    period: int = domain(POSITIVE_INT, 4)
    shift: int = domain(POSITIVE_INT, 1)
    step: float = domain(NON_NEGATIVE, 0.25)
    seed: int = domain(NON_NEGATIVE_INT, 0)

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def parse(cls, text: str) -> "DriftSpec":
        """Parse the CLI grammar: ``kind=flip;skew=1.5;period=4;seed=3``.

        The first clause may be a bare kind name (``flip;skew=1.5``).
        Numeric fields accept int/float literals.
        """
        return parse_clauses(cls(kind="static"), text, "drift")

    def skew_at(self, iteration: int) -> float:
        """Effective Zipf skew at ``iteration`` (flip alternates regimes,
        starting at the ``low_skew`` pole)."""
        NON_NEGATIVE_INT.check("iteration", iteration)
        if self.kind == "flip":
            return self.low_skew if (iteration // self.period) % 2 == 0 \
                else self.skew
        return self.skew

    def _permutation(self, num_experts: int, block_index: int) -> np.ndarray:
        """Stable hot-expert ordering for one block (seeded, iteration-free)."""
        rng = np.random.default_rng([self.seed, block_index, 0x9E3779B9])
        return rng.permutation(num_experts)


def drift_weights(
    spec: DriftSpec,
    num_experts: int,
    iteration: int,
    block_index: int = 0,
) -> np.ndarray:
    """Popularity over experts at ``iteration`` — normalized, positive,
    deterministic in ``(spec, num_experts, iteration, block_index)``."""
    POSITIVE_INT.check("num_experts", num_experts)
    NON_NEGATIVE_INT.check("iteration", iteration)
    perm = spec._permutation(num_experts, block_index)
    if spec.kind == "rotate":
        turns = (iteration // spec.period) * spec.shift
        perm = np.roll(perm, -turns)
    ranked = zipf_law(num_experts, spec.skew_at(iteration))
    if spec.kind == "walk" and iteration > 0 and spec.step > 0:
        rng = np.random.default_rng([spec.seed, block_index, 0x57A1CDEF])
        steps = rng.normal(0.0, spec.step, size=(iteration, num_experts))
        ranked = np.exp(np.log(ranked) + steps.sum(axis=0))
        ranked /= ranked.sum()
    weights = np.empty(num_experts, dtype=float)
    weights[perm] = ranked
    return weights


def apply_drift(workload, spec: DriftSpec, iteration: int,
                rng: Optional[np.random.Generator] = None) -> None:
    """Regenerate every MoE block's routing matrix for ``iteration``.

    Mutates ``workload`` (an
    :class:`~repro.core.workload.IterationWorkload`) in place: each worker
    re-draws its per-expert token-slot counts from the block's drifted
    popularity.  Fully deterministic — the multinomial RNG is keyed on
    ``(seed, iteration, block)``, so the trajectory does not depend on call
    order, engine mode, or how many engines share the spec.
    """
    tokens = workload.config.tokens_per_worker
    world = workload.world_size
    for block in workload.moe_blocks():
        weights = drift_weights(spec, block.num_experts, iteration,
                                block.index)
        draw = rng if rng is not None else np.random.default_rng(
            [spec.seed, iteration, block.index]
        )
        routing = np.stack([
            draw.multinomial(tokens, weights) for _ in range(world)
        ]).astype(np.int64)
        block.routing[:] = routing
