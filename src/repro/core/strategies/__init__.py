"""Pluggable block-execution strategies for the timed Janus engine.

Importing this package registers the built-in strategies:

* ``expert-centric`` — bulk-synchronous All-to-All (Tutel baseline);
* ``data-centric``   — Janus Task Queue expert pulls;
* ``pipelined-ec``   — expert-centric with K-chunked All-to-All overlapped
  with expert compute (Parm/FlowMoE-style pipeline scheduling);
* ``microbatch-ec``  — expert-centric split into M interleaved micro-batch
  pipelines.

New paradigms subclass :class:`BlockStrategy` and register with
``@register_strategy``; the engine, the unified selector and the CLI pick
them up by name.
"""

from .base import (
    BlockStrategy,
    comm_family,
    get_strategy,
    register_strategy,
    resolve_strategy_name,
    strategy_names,
)
# Import order fixes registration order, which in turn fixes the order of
# the strategies' service lanes and of the memory-estimate terms:
# expert-centric coordinators spawn before data-centric schedulers
# (bit-identical timings).
from .expert_centric import ExpertCentricStrategy
from .data_centric import DataCentricStrategy
from .pipelined import PipelinedExpertCentricStrategy
# microbatch-ec registers last: appending keeps every pre-existing
# registration index (and thus lane/memory-term order) unchanged.
from .microbatch import MicroBatchExpertCentricStrategy

__all__ = [
    "BlockStrategy",
    "DataCentricStrategy",
    "ExpertCentricStrategy",
    "MicroBatchExpertCentricStrategy",
    "PipelinedExpertCentricStrategy",
    "comm_family",
    "get_strategy",
    "register_strategy",
    "resolve_strategy_name",
    "strategy_names",
]
