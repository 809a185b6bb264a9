"""Explicit task-graph scheduling for the Janus engine.

The iteration is expressed as a DAG of typed tasks (gate, dense/expert
compute, All-to-All chunks, Task-Queue pulls, gradient all-reduce) grouped
into lanes, each lane executed by one simkit process.  It is the engine's
only execution path: every block strategy contributes worker tasks and
service/collector lanes, and the builder adds the schedules that span
blocks — pipeline-parallel micro-batching and backward all-reduce overlap.
"""

from .builders import build_iteration_plan, entry_label, gpu_claim
from .executor import run_lane
from .graph import GraphValidationError, Lane, TaskGraph
from .stagger import NIC_FABRIC_RESOURCE, apply_a2a_stagger, chunk_round
from .task import ResourceClaim, Task, TaskKind

__all__ = [
    "Task",
    "TaskKind",
    "ResourceClaim",
    "Lane",
    "TaskGraph",
    "GraphValidationError",
    "build_iteration_plan",
    "entry_label",
    "gpu_claim",
    "run_lane",
    "NIC_FABRIC_RESOURCE",
    "apply_a2a_stagger",
    "chunk_round",
]
