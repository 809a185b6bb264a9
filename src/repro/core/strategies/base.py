"""The block-execution strategy interface and its registry.

A :class:`BlockStrategy` encapsulates everything one *execution paradigm*
needs to run the MoE blocks assigned to it inside a simulated iteration,
expressed as parts of the iteration's task graph
(:mod:`repro.core.taskgraph`):

* the tasks every worker lane runs for a block in each phase,
* coordinator / scheduler lanes that drive communication,
* gradient-collector lanes for the backward sweep,
* its contribution to the per-GPU memory footprint.

Strategies are registered by name (``@register_strategy``) and the engine,
the unified selector, and the CLI all resolve strategy names through
:func:`get_strategy` — adding a new paradigm is a new module in this
package, not surgery on the engine core.  One strategy instance is created
per iteration and per engine, so instances may keep per-iteration state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import TYPE_CHECKING, ClassVar, Dict, List, Tuple, Type

from ...models.flops import BACKWARD_MULTIPLIER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..context import IterationContext
    from ..engine import JanusEngine
    from ...config import ModelConfig

__all__ = [
    "BlockStrategy",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "resolve_strategy_name",
    "comm_family",
]


class BlockStrategy(ABC):
    """How one set of MoE blocks executes within a simulated iteration.

    ``blocks`` is the ascending tuple of MoE block indices this instance
    owns for the iteration; ``engine`` provides the workload, cluster,
    features, jitter and straggler models.
    """

    #: Registry key; also the CLI mode name.
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


_REGISTRY: Dict[str, Type[BlockStrategy]] = {}


def register_strategy(cls: Type[BlockStrategy]) -> Type[BlockStrategy]:
    """Class decorator: add ``cls`` to the registry under ``cls.name``."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"{cls!r} must define a non-empty `name`")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"strategy name {name!r} already registered")
    _REGISTRY[name] = cls
    return cls


def get_strategy(name: str) -> Type[BlockStrategy]:
    """Look up a strategy class by name; raises ValueError when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown block strategy {name!r}; "
            f"registered: {sorted(_REGISTRY)}"
        ) from None


def strategy_names() -> Tuple[str, ...]:
    """Registered strategy names, in registration order."""
    return tuple(_REGISTRY)


def resolve_strategy_name(spec) -> str:
    """Normalize a strategy spec (name, Paradigm, or class) to its name.

    Accepts a registered name, an enum member whose ``value`` is a
    registered name (:class:`~repro.core.paradigm.Paradigm`), or a
    :class:`BlockStrategy` subclass/instance.
    """
    if isinstance(spec, str):
        name = spec
    elif isinstance(spec, Enum):
        name = spec.value
    elif isinstance(spec, BlockStrategy) or (
        isinstance(spec, type) and issubclass(spec, BlockStrategy)
    ):
        name = spec.name
    else:
        raise ValueError(f"cannot resolve block strategy from {spec!r}")
    get_strategy(name)  # validate
    return name


def comm_family(spec) -> str:
    """The §5.1.3 byte-volume family a strategy moves on the wire.

    Strategies served by the Janus Task Queue pull experts to the data —
    the *data-centric* volume (``8 H^2 E m (n-1)`` elements); everything
    else ships tokens to the experts — the *expert-centric* volume
    (``2 m H T (n-1)/n``).  Pipelining and micro-batching reschedule when
    bytes move, not how many, so every registered expert-centric variant
    maps to the same family.  Consumers (e.g. the serving simulator's
    per-phase traffic model) size wire transfers from this.
    """
    name = resolve_strategy_name(spec)
    return (
        "data-centric"
        if get_strategy(name).uses_task_queue
        else "expert-centric"
    )
