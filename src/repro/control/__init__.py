"""Online adaptive control plane (ROADMAP item 3).

Between-iteration feedback loop over the timed engine: harvest one
iteration's measured signals (:mod:`repro.control.signals`), decide
(:mod:`repro.control.policy`) which blocks should switch paradigm, which
hot experts to replicate across machines and which cold replicas to evict,
and apply the decisions plus the next iteration's popularity drift
(:mod:`repro.control.controller`).  Unifies the fault-driven
:class:`~repro.faults.DegradationPolicy` of the resilience layer (the
fault arm, ``ControlPolicy``'s ``degradation``) and the load-driven
adaptation behind one policy interface, with a deadband, a cost-model win
margin and probation-based recovery so decisions neither flap nor ratchet
one-way.  ``ControlConfig`` holds the four settings a caller may change;
the rest are named constants of :mod:`repro.control.policy`.
``JanusEngine(controller=)`` is the only way either reaches the engine;
per-iteration chunk re-tuning is the engine's own
``JanusFeatures(chunk_autotune=True)`` (``--chunks auto``), which sees the
drifted routing whenever a controller is attached.
"""

from .controller import Controller
from .policy import (
    ChunkPlan,
    ControlConfig,
    ControlDecision,
    ControlPolicy,
    tune_engine_chunks,
)
from .signals import BlockLoadSignals, ControlSignals

__all__ = [
    "BlockLoadSignals",
    "ChunkPlan",
    "ControlConfig",
    "ControlDecision",
    "ControlPolicy",
    "ControlSignals",
    "Controller",
    "tune_engine_chunks",
]
