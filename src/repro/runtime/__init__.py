"""Functional distributed-training emulation (numerics + traffic accounting)."""

from .comm import CommLog, CommRecord
from .data_centric import DataCentricMoE
from .executor import MoEExecutor
from .expert_centric import ExpertCentricMoE
from .layout import ExpertPlacement, RankLayout
from .model import DistributedMoEBlock, DistributedMoETransformer
from .trainer import DistributedTrainer, StepMetrics

__all__ = [
    "CommLog",
    "CommRecord",
    "DataCentricMoE",
    "DistributedMoEBlock",
    "DistributedMoETransformer",
    "DistributedTrainer",
    "ExpertCentricMoE",
    "ExpertPlacement",
    "MoEExecutor",
    "RankLayout",
    "StepMetrics",
]
