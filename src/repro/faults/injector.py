"""Applies a :class:`~repro.faults.spec.FaultPlan` to a live fabric.

The injector hooks the two chokepoints every simulated byte and FLOP pass
through:

* :meth:`intercept` is consulted by ``Fabric.transfer`` before a flow is
  activated.  Droppable scheduler legs (``pull-request``/``grad-push``/
  ``pull-direct``) that fall to message loss, and pull requests addressed
  to a machine inside a :class:`ServerOutage` window, return a *dead*
  flow — created but never activated, so its ``done`` event never fires,
  exactly like a datagram lost on the wire.  Recovery is the caller's
  :func:`~repro.faults.retry_flow` timeout + retry.
* :meth:`compute_duration` is consulted by ``Fabric.compute`` to stretch
  kernels on machines inside a :class:`ComputeSlowdown` window (piecewise,
  so a kernel spanning a window boundary pays the slow rate only inside
  the window).

Link faults run as daemon processes that rescale the matched links'
bandwidth at the window edges via ``FluidNetwork.set_capacity``: to the
link's capacity from before any window times the factors of the windows
still open, so overlapping windows compound and the last to close
restores it.

Determinism: the RNG (seeded by the plan) is drawn only when a transfer is
*eligible* for a loss fault, and eligible transfers occur in the engine's
deterministic event order — so the same plan + seed reproduces the same
drops, retries and timeline on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..netsim.fluid import Flow
from .spec import (
    ComputeSlowdown,
    FaultPlan,
    LinkFault,
    MessageLoss,
    ServerOutage,
)

__all__ = ["FaultInjector", "FaultStats"]


@dataclass
class FaultStats:
    """Counters accumulated over one faulted iteration (or run)."""

    dropped_messages: int = 0
    retries: int = 0
    stale_fallbacks: int = 0
    grad_failures: int = 0
    fallbacks_by_block: Dict[int, int] = field(default_factory=dict)
    degraded_blocks: Dict[int, str] = field(default_factory=dict)

    def count_fallback(self, block: int) -> None:
        self.stale_fallbacks += 1
        self.fallbacks_by_block[block] = self.fallbacks_by_block.get(block, 0) + 1


class FaultInjector:
    """Applies one plan's faults to one fabric for the duration of a run."""

    def __init__(
        self,
        plan: FaultPlan,
        fabric,
        trace=None,
        stats: Optional[FaultStats] = None,
    ):
        self.plan = plan
        self.fabric = fabric
        self.trace = trace
        self.stats = stats if stats is not None else FaultStats()
        self.rng = np.random.default_rng(plan.seed)
        self._losses = plan.of_type(MessageLoss)
        self._slowdowns = plan.of_type(ComputeSlowdown)
        self._outages = plan.of_type(ServerOutage)
        self._link_faults = plan.of_type(LinkFault)
        # Per link while any window on it is open: its capacity from
        # before the first, and its open windows in the order they opened.
        self._open_windows: Dict[Hashable, Tuple[float, List[LinkFault]]] = {}
        self.installed = False

    def install(self) -> "FaultInjector":
        """Hook the fabric and spawn the window processes.  Idempotent."""
        if self.installed:
            return self
        self.installed = True
        self.fabric.fault_injector = self
        env = self.fabric.env
        for fault in self._link_faults:
            env.process(
                self._link_window(fault),
                name=f"fault-link[{fault.selector}]",
                daemon=True,
            )
        if self.trace is not None:
            # Planned windows land in the fault lane up front; point faults
            # (drops/retries/fallbacks) are recorded as they happen.
            for fault in self._link_faults:
                if math.isfinite(fault.end):
                    self.trace.record(
                        "fault.link", fault.start, fault.end,
                        detail=f"{fault.selector}*{fault.factor}",
                    )
            for fault in self._slowdowns:
                if math.isfinite(fault.end):
                    self.trace.record(
                        "fault.slow", fault.start, fault.end,
                        detail=f"machine={fault.machine}*{fault.speed}",
                    )
            for fault in self._outages:
                if math.isfinite(fault.end):
                    self.trace.record(
                        "fault.outage", fault.start, fault.end,
                        detail=f"machine={fault.machine}:drop",
                    )
        return self

    # -- link windows --------------------------------------------------------

    def _link_window(self, fault: LinkFault):
        env = self.fabric.env
        network = self.fabric.network
        if fault.start > 0:
            yield env.timeout(fault.start)
        links = [link_id for link_id in network.links() if fault.matches(link_id)]
        for link_id in links:
            _, faults = self._open_windows.setdefault(
                link_id, (network.capacity(link_id), [])
            )
            faults.append(fault)
            self._apply_windows(link_id)
        if not math.isfinite(fault.end):
            return
        yield env.timeout(fault.end - env.now)
        for link_id in links:
            self._open_windows[link_id][1].remove(fault)
            self._apply_windows(link_id)

    def _apply_windows(self, link_id) -> None:
        """Set ``link_id`` to its capacity from before any window times the
        factors of its open windows, in the order they opened; forget that
        capacity once no window is open."""
        bandwidth, faults = self._open_windows[link_id]
        for fault in faults:
            bandwidth = bandwidth * fault.factor
        if not faults:
            del self._open_windows[link_id]
        self.fabric.network.set_capacity(link_id, bandwidth)

    # -- transfer interception -------------------------------------------------

    def intercept(self, src, dst, size, tag) -> Optional[Flow]:
        """Return a dead flow if this transfer is lost; None to proceed."""
        kind = self._message_kind(tag)
        if kind is None:
            return None
        now = self.fabric.env.now
        # Server outage: requests addressed to the dark machine's host
        # vanish deterministically.
        if kind == "pull-request" and dst.kind == "host":
            for fault in self._outages:
                if fault.machine == dst.machine and fault.start <= now < fault.end:
                    return self._drop(size, tag, now, "outage")
        for fault in self._losses:
            if kind in fault.kinds and fault.start <= now < fault.end:
                if self.rng.random() < fault.rate:
                    return self._drop(size, tag, now, "loss")
        return None

    @staticmethod
    def _message_kind(tag) -> Optional[str]:
        if not isinstance(tag, tuple) or not tag:
            return None
        head = tag[0]
        return head if isinstance(head, str) else None

    def _drop(self, size, tag, now: float, cause: str) -> Flow:
        # Created but never activated: done never fires, like a lost packet.
        # The constructor refuses the sizes a delivered transfer refuses.
        flow = Flow(self.fabric.env, (), (), size, 0.0, tag=tag)
        self.stats.dropped_messages += 1
        if self.trace is not None:
            self.trace.record("fault.drop", now, now, detail=f"{cause}:{tag[0]}")
            self.trace.mark("fault.drop", now, tag=tag, cause=cause)
        return flow

    # -- compute slowdown ------------------------------------------------------

    def compute_scale(self, machine: int, now: float) -> float:
        """Compound speed factor for ``machine`` at instant ``now``."""
        scale = 1.0
        for fault in self._slowdowns:
            if fault.machine == machine and fault.start <= now < fault.end:
                scale *= fault.speed
        return scale

    def compute_duration(self, machine: int, seconds: float, now: float) -> float:
        """Wall-clock seconds for ``seconds`` of nominal work started at
        ``now``, integrating piecewise over slowdown window boundaries."""
        windows = [f for f in self._slowdowns if f.machine == machine]
        if not windows or seconds <= 0:
            return seconds
        boundaries = sorted(
            {b for f in windows for b in (f.start, f.end) if b > now}
        )
        t = now
        work = seconds
        for boundary in boundaries:
            speed = self.compute_scale(machine, t)
            span = boundary - t
            if work <= span * speed:
                return t + work / speed - now
            work -= span * speed
            t = boundary
        return t + work / self.compute_scale(machine, t) - now
