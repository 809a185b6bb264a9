"""Resilience knobs for the schedulers and the degradation policy.

:class:`ResilienceConfig` gives every cross-machine control interaction a
timeout, a bounded retry budget with exponential backoff, and a per-block
deadline; :func:`retry_flow` is the one wait on every scheduler leg that
can be lost (pull request, direct pull, gradient push), armed or not;
:class:`DegradationPolicy` decides, between iterations, which blocks
should abandon the pull-based data-centric paradigm and fall back to
expert-centric (the unified selector's escape hatch when the fault
pattern makes fine-grained pulls lose).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..domains import (
    AT_LEAST_ONE,
    NON_NEGATIVE_INT,
    POSITIVE,
    POSITIVE_INT,
    Choice,
    check_fields,
    domain,
)
from ..simkit import AnyOf
from .injector import FaultStats

__all__ = [
    "DegradationPolicy",
    "PullFailedError",
    "ResilienceConfig",
    "flow_or_timeout",
    "retry_flow",
]

_INF = float("inf")


class PullFailedError(Exception):
    """A pull exhausted its retry budget without receiving the payload."""

    def __init__(self, requester, target, key, attempts: int):
        self.requester = requester
        self.target = target
        self.key = key
        self.attempts = attempts
        super().__init__(
            f"pull {key!r} from {target} to {requester} failed "
            f"after {attempts} attempt(s)"
        )


@dataclass(frozen=True)
class ResilienceConfig:
    """Timeout/retry/backoff budgets for faulted runs.

    ``pull_timeout`` is the first attempt's wait for a pull-request
    round-trip (control leg); each retry multiplies it by ``backoff`` up to
    ``max_retries`` re-sends.  ``push_timeout`` guards gradient pushes (data
    flows, so it must dominate a healthy transfer time).  ``block_deadline``
    bounds the total time a machine spends fetching any one block's external
    experts before remaining fetches fall back to the stale cached copy;
    ``None`` disables the deadline.  ``on_failure`` picks between graceful
    degradation (``"degrade"``: stale-copy fallback, counted in
    :class:`~repro.faults.injector.FaultStats`) and ``"raise"`` (surface
    :class:`PullFailedError` to the caller).
    """

    pull_timeout: float = domain(POSITIVE, 1e-3)
    max_retries: int = domain(NON_NEGATIVE_INT, 3)
    backoff: float = domain(AT_LEAST_ONE, 2.0)
    push_timeout: float = domain(POSITIVE, 20e-3)
    block_deadline: Optional[float] = domain(POSITIVE.or_none(), 100e-3)
    on_failure: str = domain(Choice(("degrade", "raise")), "degrade")

    def __post_init__(self):
        check_fields(self)


def flow_or_timeout(env, flow, seconds: float):
    """An event that fires when ``flow`` completes or ``seconds`` pass,
    whichever is first; ``flow.done.triggered`` then tells which."""
    return AnyOf(env, [flow.done, env.timeout(seconds)])


def retry_flow(
    env,
    res: Optional[ResilienceConfig],
    send: Callable,
    on_retry: Callable[[], None],
    deadline: float = _INF,
    push: bool = False,
):
    """Send a flow until it completes; return it, or ``None`` on give-up.

    The one wait on a losable scheduler leg.  Unarmed (``res is None``)
    it sends once and waits for ``done``: no timer, no extra event.
    Armed, each attempt calls ``send()`` for a fresh flow and races its
    ``done`` against a timer of ``res.pull_timeout`` (``res.push_timeout``
    when ``push``), scaled by ``res.backoff`` per retry over
    ``res.max_retries`` retries and clipped to what is left before
    ``deadline``.  A deadline already passed gives up before sending.
    ``on_retry`` runs before each re-send, so each call site books its
    own retry.  A flow lost to the fault injector never completes, so its
    timer is how the loop learns of the loss.
    """
    if res is None:
        flow = send()
        yield flow.done
        return flow
    delay = res.push_timeout if push else res.pull_timeout
    for attempt in range(res.max_retries + 1):
        budget = deadline - env.now
        if budget <= 0:
            return None
        flow = send()
        yield flow_or_timeout(env, flow, min(delay, budget))
        if flow.done.triggered:
            return flow
        if attempt < res.max_retries:
            on_retry()
            delay *= res.backoff
    return None


@dataclass(frozen=True)
class DegradationPolicy:
    """Flip a block's paradigm once it misses a pull deadline.

    A block with any stale fallback in one iteration is switched to
    expert-centric (its All-to-All needs no cross-machine pull
    round-trips, so it is immune to pull-request loss) for subsequent
    iterations.

    ``recover_after_clean`` un-ratchets the policy: after that many
    consecutive iterations with no fault symptoms, a degraded block returns
    to its preferred (Eq. 1) strategy on probation — re-degrading during
    the probation window doubles the required clean streak (exponential
    backoff, handled by the :class:`~repro.control.ControlPolicy` whose
    fault arm this policy is).  The default ``None`` preserves the
    historical one-way behaviour exactly.
    """

    recover_after_clean: Optional[int] = domain(POSITIVE_INT.or_none(), None)

    def __post_init__(self):
        check_fields(self)

    def decide(self, stats: FaultStats) -> Dict[int, str]:
        """Blocks to switch, given one iteration's fault counters."""
        return {
            block: "expert-centric"
            for block, count in sorted(stats.fallbacks_by_block.items())
            if count > 0
        }
