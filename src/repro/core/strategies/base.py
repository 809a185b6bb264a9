"""The block-execution strategy interface.

A :class:`BlockStrategy` encapsulates everything one *execution paradigm*
needs to run the MoE blocks assigned to it inside a simulated iteration,
expressed as parts of the iteration's task graph
(:mod:`repro.core.taskgraph`):

* the tasks every worker lane runs for a block in each phase,
* coordinator / scheduler lanes that drive communication,
* gradient-collector lanes for the backward sweep,
* its contribution to the per-GPU memory footprint.

A strategy is named by its ``name`` alone: the engine, the unified
selector, the control plane and the CLI all look names up with
:func:`~repro.core.strategies.get_strategy`, whose table lists the
built-in strategies.  One strategy instance is created per iteration and
per engine, so instances may keep per-iteration state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, List, Tuple

from ...models.flops import BACKWARD_MULTIPLIER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..context import IterationContext
    from ..engine import JanusEngine
    from ...config import ModelConfig

__all__ = ["BlockStrategy"]


class BlockStrategy(ABC):
    """How one set of MoE blocks executes within a simulated iteration.

    ``blocks`` is the ascending tuple of MoE block indices this instance
    owns for the iteration; ``engine`` provides the workload, cluster,
    features, jitter and straggler models.
    """

    #: The strategy's one name: its key in the strategy table and its
    #: CLI mode name.
    name: ClassVar[str]
    #: Whether the strategy's blocks are served by the Janus Task Queue
    #: (intra/inter-node schedulers, credits, caches).
    uses_task_queue: ClassVar[bool] = False
    #: Whether the strategy can split its blocks into micro-batches: its
    #: ``worker_tasks`` take ``micro=(m, M)`` and its ``service_lanes``
    #: take ``micro_batches=M``.
    micro_capable: ClassVar[bool] = False

    def __init__(self, engine: "JanusEngine", blocks: Tuple[int, ...]):
        self.engine = engine
        self.blocks = tuple(sorted(blocks))

    # -- task-graph hooks ------------------------------------------------------

    @abstractmethod
    def worker_tasks(self, ctx: "IterationContext", rank: int, index: int,
                     phase: str) -> List:
        """Tasks a worker lane runs for one of this strategy's blocks.

        A ``micro_capable`` strategy also takes ``micro=(m, M)``: the
        tasks micro-batch lane ``m`` of ``M`` runs."""

    def service_lanes(self, ctx: "IterationContext", graph,
                      forward_only: bool) -> List:
        """Coordinator/scheduler lanes, created on ``graph``.

        A ``micro_capable`` strategy also takes ``micro_batches=M``."""
        return []

    def collector_lanes(self, ctx: "IterationContext", graph) -> List:
        """Gradient-collector lanes that must finish before the iteration
        ends (backward sweep only)."""
        return []

    # -- pricing -----------------------------------------------------------------

    def expert_seconds(self, tokens: float, gpu_flops: float,
                       launches: int, phase: str) -> float:
        """The one expert-compute price: ``tokens`` through an expert FFN
        at ``gpu_flops`` plus ``launches`` kernel launches, doubled in the
        backward sweep and jittered by the engine."""
        engine = self.engine
        mult = BACKWARD_MULTIPLIER if phase == "bwd" else 1.0
        return engine._jittered(
            (tokens * engine.workload.expert_flops / gpu_flops
             + engine.cluster.spec.gpu.kernel_overhead * launches) * mult
        )

    # -- memory model ----------------------------------------------------------

    @classmethod
    def memory_terms(
        cls,
        config: "ModelConfig",
        num_blocks: int,
        credit_size: int,
        pipeline_chunks: int,
    ) -> Tuple[float, ...]:
        """Per-strategy GPU memory terms (bytes) for ``num_blocks`` blocks.

        Returned as individual terms so the aggregate estimate sums them in
        a deterministic order (bit-stable across refactors).
        """
        return ()
