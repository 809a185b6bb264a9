"""The iteration task graph: lanes of tasks plus a label→event registry.

A :class:`TaskGraph` holds an ordered list of :class:`Lane`\\ s.  Each lane
is executed by exactly one simkit process (see :mod:`.executor`): its tasks
run in sequence, and cross-lane dependencies are expressed through event
labels (a task ``signals`` a label, tasks elsewhere ``wait`` on it).  The
1:1 lane↔process mapping keeps the kernel's event and process counts those
of the simulated work itself — the graph adds structure, not events.

Labels are plain strings so a graph is a self-contained structural object:
:meth:`validate`, :meth:`to_dot` and :meth:`to_json` need no simulation
environment.  At execution time :meth:`event` resolves labels to simkit
events, lazily creating them; events owned elsewhere (``iteration_start``,
the ``block_entry`` gates) are attached with :meth:`bind`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .task import Task

__all__ = ["Lane", "TaskGraph", "GraphValidationError"]

_ROLES = ("worker", "service", "collector")


class GraphValidationError(ValueError):
    """The task graph is structurally unsound (cycle, orphan, leaked claim)."""


@dataclass
class Lane:
    """One sequential run of tasks, executed by one simkit process."""

    name: str
    role: str = "service"
    tasks: List[Task] = field(default_factory=list)
    priority: int = 1
    worker: Optional[int] = None

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"unknown lane role {self.role!r}")

    def add(self, *tasks: Task) -> "Lane":
        self.tasks.extend(tasks)
        return self


class TaskGraph:
    """Ordered lanes + label registry; validator and DOT/JSON export."""

    def __init__(self, env=None):
        self.env = env
        self.lanes: List[Lane] = []
        self._events: Dict[str, object] = {}
        # Labels triggered from outside the graph (the engine driver) and
        # labels consumed outside it (composite task bodies wait on bound
        # events internally, invisibly to the structural view).
        self.inputs: Set[str] = set()
        self.outputs: Set[str] = set()

    # -- construction ------------------------------------------------------

    def lane(
        self,
        name: str,
        role: str = "service",
        priority: int = 1,
        worker: Optional[int] = None,
    ) -> Lane:
        lane = Lane(name, role=role, priority=priority, worker=worker)
        self.lanes.append(lane)
        return lane

    def bind(self, label: str, event) -> None:
        """Attach an externally owned simkit event to ``label``."""
        self._events[label] = event

    def event(self, label: str):
        """Resolve ``label`` to its simkit event, creating it on first use."""
        event = self._events.get(label)
        if event is None:
            if self.env is None:
                raise GraphValidationError(
                    f"label {label!r} is unbound and the graph has no "
                    "environment to create events in"
                )
            event = self.env.event()
            self._events[label] = event
        return event

    def declare_inputs(self, *labels: str) -> None:
        self.inputs.update(labels)

    def declare_outputs(self, *labels: str) -> None:
        self.outputs.update(labels)

    def tasks(self) -> Iterator[Task]:
        for lane in self.lanes:
            yield from lane.tasks

    # -- structural analysis -----------------------------------------------

    def _edges(self) -> List[Tuple[str, str]]:
        """Dependency edges by task name: lane order + signal→wait."""
        edges: List[Tuple[str, str]] = []
        signaler: Dict[str, str] = {}
        for task in self.tasks():
            for label in task.signals:
                signaler[label] = task.name
        for lane in self.lanes:
            for prev, nxt in zip(lane.tasks, lane.tasks[1:]):
                edges.append((prev.name, nxt.name))
        for task in self.tasks():
            for label in task.waits:
                source = signaler.get(label)
                if source is not None:
                    edges.append((source, task.name))
        return edges

    def validate(self) -> List[str]:
        """Check the graph is executable; return a topological task order.

        Raises :class:`GraphValidationError` on:

        * duplicate task names or multiply-signaled labels (an event can
          only succeed once),
        * waited labels nobody signals (unless declared inputs) and
          signaled labels nobody waits on (unless declared outputs),
        * dependency cycles (lane order + signal→wait edges),
        * unbalanced acquire/release resource claims within a lane.
        """
        tasks = list(self.tasks())
        names = [task.name for task in tasks]
        if len(set(names)) != len(names):
            seen: Set[str] = set()
            dup = next(n for n in names if n in seen or seen.add(n))
            raise GraphValidationError(f"duplicate task name {dup!r}")

        signaler: Dict[str, str] = {}
        for task in tasks:
            for label in task.signals:
                if label in signaler:
                    raise GraphValidationError(
                        f"label {label!r} signaled by both "
                        f"{signaler[label]!r} and {task.name!r}"
                    )
                signaler[label] = task.name
        waited = {label for task in tasks for label in task.waits}
        for label in waited:
            if label not in signaler and label not in self.inputs:
                raise GraphValidationError(
                    f"label {label!r} is waited on but never signaled "
                    "(and not a declared input)"
                )
        for label, name in signaler.items():
            if label not in waited and label not in self.outputs:
                raise GraphValidationError(
                    f"label {label!r} signaled by {name!r} is never waited "
                    "on (and not a declared output)"
                )

        order = self._topo_order(names)
        self._check_claims()
        return order

    def _topo_order(self, names: List[str]) -> List[str]:
        indegree = {name: 0 for name in names}
        children: Dict[str, List[str]] = {name: [] for name in names}
        for src, dst in self._edges():
            indegree[dst] += 1
            children[src].append(dst)
        ready = deque(name for name in names if indegree[name] == 0)
        order: List[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for child in children[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(names):
            stuck = sorted(set(names) - set(order))
            raise GraphValidationError(
                f"dependency cycle through {len(stuck)} task(s): "
                f"{', '.join(stuck[:6])}"
            )
        return order

    def _check_claims(self) -> None:
        for lane in self.lanes:
            held: Dict[str, int] = {}
            for task in lane.tasks:
                for claim in task.claims:
                    if claim.mode == "acquire":
                        held[claim.resource] = held.get(claim.resource, 0) + 1
                    elif claim.mode == "release":
                        if not held.get(claim.resource):
                            raise GraphValidationError(
                                f"task {task.name!r} releases "
                                f"{claim.resource!r} without a prior acquire "
                                f"in lane {lane.name!r}"
                            )
                        held[claim.resource] -= 1
            leaked = sorted(r for r, n in held.items() if n)
            if leaked:
                raise GraphValidationError(
                    f"lane {lane.name!r} never releases acquired "
                    f"resource(s): {', '.join(leaked)}"
                )

    # -- export ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": "janus-repro/taskgraph/v1",
            "inputs": sorted(self.inputs),
            "outputs": sorted(self.outputs),
            "num_tasks": sum(len(lane.tasks) for lane in self.lanes),
            "lanes": [
                {
                    "name": lane.name,
                    "role": lane.role,
                    "priority": lane.priority,
                    "worker": lane.worker,
                    "tasks": [task.describe() for task in lane.tasks],
                }
                for lane in self.lanes
            ],
            "edges": [list(edge) for edge in self._edges()],
        }

    def to_dot(self) -> str:
        """Graphviz digraph: one cluster per lane, dependency edges."""
        ids = {task.name: f"t{i}" for i, task in enumerate(self.tasks())}
        lines = [
            "digraph taskgraph {",
            "  rankdir=LR;",
            '  node [shape=box, fontsize=9];',
        ]
        for i, lane in enumerate(self.lanes):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="{_quote(lane.name)} [{lane.role}]";')
            for task in lane.tasks:
                label = _quote(task.name) + "\\n" + task.kind.value
                lines.append(f'    {ids[task.name]} [label="{label}"];')
            lines.append("  }")
        for src, dst in self._edges():
            lines.append(f"  {ids[src]} -> {ids[dst]};")
        lines.append("}")
        return "\n".join(lines)


def _quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
