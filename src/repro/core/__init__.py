"""Janus core: paradigm selection, task queue schedulers, timed engines."""

from .context import IterationContext, JanusFeatures
from .engine import IterationResult, JanusEngine
from .inter_scheduler import InterNodeScheduler
from .intra_scheduler import IntraNodeScheduler
from .memory_model import (
    MemoryEstimate,
    estimate_strategies,
)
from .paradigm import (
    BlockCommProfile,
    CostModel,
    comm_data_centric,
    comm_expert_centric,
    gain_ratio,
    profile_block,
    profile_model,
    select_paradigm,
)
from .priority import (
    PcieCopyStep,
    internal_pull_order,
    internal_pull_priority,
    pcie_peer_schedule,
    split_external_groups,
)
from .strategies import (
    BlockStrategy,
    DataCentricStrategy,
    ExpertCentricStrategy,
    MicroBatchExpertCentricStrategy,
    PipelinedExpertCentricStrategy,
    get_strategy,
    strategy_names,
)
from .taskgraph import (
    NIC_FABRIC_RESOURCE,
    GraphValidationError,
    Lane,
    ResourceClaim,
    Task,
    TaskGraph,
    TaskKind,
    apply_a2a_stagger,
    build_iteration_plan,
    run_lane,
)
from .tensor_parallel import TensorParallelPlan, plan_tensor_parallel
from .unified import auto_schedule_map, engine_for, engine_modes, strategy_map
from .workload import BlockWorkload, IterationWorkload, build_workload

__all__ = [
    "BlockCommProfile",
    "BlockStrategy",
    "BlockWorkload",
    "CostModel",
    "DataCentricStrategy",
    "ExpertCentricStrategy",
    "GraphValidationError",
    "Lane",
    "MicroBatchExpertCentricStrategy",
    "PipelinedExpertCentricStrategy",
    "InterNodeScheduler",
    "IntraNodeScheduler",
    "IterationContext",
    "IterationResult",
    "IterationWorkload",
    "JanusEngine",
    "JanusFeatures",
    "MemoryEstimate",
    "ResourceClaim",
    "Task",
    "TaskGraph",
    "TaskKind",
    "TensorParallelPlan",
    "PcieCopyStep",
    "auto_schedule_map",
    "build_iteration_plan",
    "build_workload",
    "comm_data_centric",
    "comm_expert_centric",
    "engine_for",
    "engine_modes",
    "estimate_strategies",
    "gain_ratio",
    "get_strategy",
    "internal_pull_order",
    "internal_pull_priority",
    "pcie_peer_schedule",
    "plan_tensor_parallel",
    "profile_block",
    "profile_model",
    "run_lane",
    "NIC_FABRIC_RESOURCE",
    "apply_a2a_stagger",
    "select_paradigm",
    "split_external_groups",
    "strategy_map",
    "strategy_names",
]
