"""Run task-graph lanes on the simkit kernel.

One lane = one simkit process.  The runner adds no events or processes of
its own beyond what the simulated work needs, which keeps simulated times
and the golden-pinned kernel counters stable:

* a task with a single wait yields that event **directly** (no wrapper),
* a task with several waits builds the :class:`AllOf` lazily, at the moment
  the lane reaches the task,
* generator bodies are ``yield from``-ed inline (no sub-process),
* signal events succeed after the body, in declaration order.

The optional ``observer`` is called after the body of every task that is
not a ``GATE``, with the task and its start/end sim-times.  It is the only
code that records a task's spans (the ``task.*`` span and the ``span``
the task names); it is pure bookkeeping and must never touch the
simulation clock.

``arbiters`` (optional) maps resource names to simkit
:class:`~repro.simkit.PriorityResource` instances.  A task carrying a
*prioritized* scoped :class:`ResourceClaim` on an arbitrated resource
holds one slot of it for the duration of its body — the intra-A2A chunk
scheduler's NIC-fabric serialization.  Without arbiters (every default
run) no resource requests are made at all.
"""

from __future__ import annotations

from types import GeneratorType

from ...simkit import AllOf
from .graph import Lane, TaskGraph
from .task import TaskKind

__all__ = ["run_lane"]


def run_lane(graph: TaskGraph, lane: Lane, observer=None, arbiters=None):
    """Generator executing ``lane``'s tasks in order (one simkit process)."""
    env = graph.env
    event_of = graph.event
    for task in lane.tasks:
        waits = task.waits
        if waits:
            if len(waits) == 1:
                yield event_of(waits[0])
            else:
                yield AllOf(env, [event_of(label) for label in waits])
        grants = []
        if arbiters is not None:
            for claim in task.claims:
                if claim.priority is None or claim.mode != "scoped":
                    continue
                arbiter = arbiters.get(claim.resource)
                if arbiter is None:
                    continue
                request = arbiter.request(priority=claim.priority)
                yield request
                grants.append((arbiter, request))
        if task.body is not None:
            started = env.now
            outcome = task.body()
            if isinstance(outcome, GeneratorType):
                yield from outcome
            if observer is not None and task.kind is not TaskKind.GATE:
                observer(task, started, env.now)
        for arbiter, request in grants:
            arbiter.release(request)
        for label in task.signals:
            event_of(label).succeed()
