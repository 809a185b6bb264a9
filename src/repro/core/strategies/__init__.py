"""Block-execution strategies for the timed Janus engine, by name.

* ``expert-centric`` — bulk-synchronous All-to-All (Tutel baseline);
* ``data-centric``   — Janus Task Queue expert pulls;
* ``pipelined-ec``   — expert-centric with K-chunked All-to-All overlapped
  with expert compute (Parm/FlowMoE-style pipeline scheduling);
* ``microbatch-ec``  — expert-centric split into M interleaved micro-batch
  pipelines.

A strategy is spelled by its name everywhere; :func:`get_strategy` maps a
name to its :class:`BlockStrategy` class and rejects every other spec.
"""

from typing import Tuple, Type

from .base import BlockStrategy
from .data_centric import DataCentricStrategy
from .expert_centric import ExpertCentricStrategy
from .microbatch import MicroBatchExpertCentricStrategy
from .pipelined import PipelinedExpertCentricStrategy

# The table's order fixes the order of the strategies' service lanes and of
# the memory-estimate terms: expert-centric coordinators spawn before
# data-centric schedulers (bit-identical timings).
_STRATEGIES = {
    cls.name: cls
    for cls in (
        ExpertCentricStrategy,
        DataCentricStrategy,
        PipelinedExpertCentricStrategy,
        MicroBatchExpertCentricStrategy,
    )
}


def get_strategy(name: str) -> Type[BlockStrategy]:
    """The strategy class named ``name``; ValueError for any other spec."""
    try:
        return _STRATEGIES[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown block strategy {name!r}; expected one of "
            f"{strategy_names()}"
        ) from None


def strategy_names() -> Tuple[str, ...]:
    """Every strategy name, in table order."""
    return tuple(_STRATEGIES)


__all__ = [
    "BlockStrategy",
    "DataCentricStrategy",
    "ExpertCentricStrategy",
    "MicroBatchExpertCentricStrategy",
    "PipelinedExpertCentricStrategy",
    "get_strategy",
    "strategy_names",
]
