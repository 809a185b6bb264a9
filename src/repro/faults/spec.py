"""Fault specifications: *what* goes wrong, *where*, and *when*.

A :class:`FaultPlan` is a deterministic, seeded description of adverse
conditions applied to one simulated run.  Each fault is a frozen dataclass
with an activity window ``[start, end)`` in simulated seconds (``end`` may
be ``inf`` for the whole run), so the same plan + seed always reproduces
the same timeline.  Supported fault kinds:

* :class:`LinkFault` — rescale the bandwidth of a set of links for the
  window (degradation with ``factor < 1``, flaps via several windows);
* :class:`MessageLoss` — probabilistic loss of pull control messages
  (``pull-request``, ``grad-push``, ``pull-direct``) drawn from the plan's
  seeded RNG;
* :class:`ServerOutage` — a machine stops serving pulls: pull requests
  addressed to it are dropped;
* :class:`ComputeSlowdown` — per-machine compute slowdown, the library
  generalization of the straggler ablation's static ``machine_speed``.

The CLI's ``--faults`` string is parsed by :meth:`FaultPlan.parse`; see
that method for the mini-grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from ..cluster.topology import LINK_KINDS
from ..domains import (
    NON_NEGATIVE,
    NON_NEGATIVE_INT,
    POSITIVE,
    UNIT,
    Domain,
    check_fields,
    domain,
)

__all__ = [
    "LOSSABLE_MESSAGE_KINDS",
    "ComputeSlowdown",
    "FaultPlan",
    "LinkFault",
    "MessageLoss",
    "ServerOutage",
]

# Control-plane tags whose loss the resilient schedulers can survive.
# Dropping arbitrary data-plane flows would deadlock callers that hold no
# timeout on them, so MessageLoss is restricted to these kinds.
LOSSABLE_MESSAGE_KINDS = ("pull-request", "grad-push", "pull-direct")

_INF = float("inf")

# A window's end: after a start >= 0, and ``inf`` for the whole run.
_END = Domain(float, 0, _INF, low_open=True, high_open=False)


def _check_window(fault) -> None:
    if not fault.end > fault.start:
        raise ValueError(f"fault window [{fault.start}, {fault.end}) is empty")


@dataclass(frozen=True)
class LinkFault:
    """Multiply the capacity of the links matched by ``selector`` during
    the window.  ``selector`` is a link-kind prefix (``"nic"``, ``"nvlink"``,
    ``"pcie"``, ``"*"`` for all), optionally scoped to one machine with
    ``"kind.machine"`` (e.g. ``"nic.0"``)."""

    selector: str
    factor: float = domain(POSITIVE)
    start: float = domain(NON_NEGATIVE, 0.0)
    end: float = domain(_END, _INF)

    def __post_init__(self):
        check_fields(self)
        kind, dot, machine = str(self.selector).partition(".")
        known = kind == "*" or (
            kind and any(name.startswith(kind) for name in LINK_KINDS)
        )
        if not (isinstance(self.selector, str) and known
                and (not dot or machine.isdecimal())):
            raise ValueError(
                "selector must be '*' or a prefix of a link kind "
                f"({', '.join(LINK_KINDS)}), optionally '.machine' with a "
                f"non-negative integer machine, got {self.selector!r} "
                "(LinkFault)"
            )
        _check_window(self)

    def matches(self, link_id) -> bool:
        kind, machine = self.selector, None
        if "." in self.selector:
            kind, machine_text = self.selector.split(".", 1)
            machine = int(machine_text)
        if kind != "*" and not str(link_id.kind).startswith(kind):
            return False
        return machine is None or link_id.machine == machine


@dataclass(frozen=True)
class MessageLoss:
    """Drop each matching control message with probability ``rate``."""

    kinds: Tuple[str, ...] = ("pull-request", "grad-push")
    rate: float = domain(UNIT, 0.1)
    start: float = domain(NON_NEGATIVE, 0.0)
    end: float = domain(_END, _INF)

    def __post_init__(self):
        check_fields(self)
        if isinstance(self.kinds, str):
            object.__setattr__(self, "kinds", (self.kinds,))
        else:
            object.__setattr__(self, "kinds", tuple(self.kinds))
        for kind in self.kinds:
            if kind not in LOSSABLE_MESSAGE_KINDS:
                raise ValueError(
                    f"cannot inject loss on {kind!r}; lossable kinds: "
                    f"{LOSSABLE_MESSAGE_KINDS}"
                )
        _check_window(self)


@dataclass(frozen=True)
class ServerOutage:
    """Machine ``machine``'s pull serving goes dark during the window:
    pull requests addressed to it are dropped."""

    machine: int = domain(NON_NEGATIVE_INT)
    start: float = domain(NON_NEGATIVE, 0.0)
    end: float = domain(_END, _INF)

    def __post_init__(self):
        check_fields(self)
        _check_window(self)


@dataclass(frozen=True)
class ComputeSlowdown:
    """Machine ``machine`` computes at ``speed`` (< 1) during the window."""

    machine: int = domain(NON_NEGATIVE_INT)
    speed: float = domain(POSITIVE)
    start: float = domain(NON_NEGATIVE, 0.0)
    end: float = domain(_END, _INF)

    def __post_init__(self):
        check_fields(self)
        _check_window(self)


FaultSpec = Union[LinkFault, MessageLoss, ServerOutage, ComputeSlowdown]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered collection of fault specs for one run."""

    seed: int = domain(NON_NEGATIVE_INT, 0)
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def of_type(self, cls) -> Tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if isinstance(f, cls))

    def check_targets(self, cluster) -> None:
        """Refuse a fault on a machine ``cluster`` does not have, or on
        links none of ``cluster``'s links match: it would run fault-free."""
        links = [link_id for link_id, _, _ in cluster.iter_links()]
        for fault in self.faults:
            if isinstance(fault, LinkFault):
                hit = any(fault.matches(link_id) for link_id in links)
            elif isinstance(fault, (ServerOutage, ComputeSlowdown)):
                hit = fault.machine < cluster.num_machines
            else:
                continue
            if not hit:
                raise ValueError(
                    f"{fault!r} targets nothing on a "
                    f"{cluster.num_machines}-machine cluster"
                )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI ``--faults`` mini-grammar.

        Semicolon-separated clauses; each fault clause is
        ``kind=target*magnitude[@start:end]`` (window in simulated seconds,
        omitted = whole run):

        * ``seed=7``                       — RNG seed for probabilistic faults
        * ``loss=pull-request*0.1``        — drop 10% of pull requests
          (several kinds: ``loss=pull-request+grad-push*0.05``)
        * ``link=nic*0.25@0.005:0.015``    — NIC links at 25% bandwidth for
          the window (selector may scope a machine: ``nic.0``)
        * ``slow=0*0.5``                   — machine 0 computes at half speed
        * ``outage=1@0.002:0.004``         — machine 1 drops pull requests
        """
        seed = 0
        faults = []
        for raw_clause in text.split(";"):
            clause = raw_clause.strip()
            if not clause:
                continue
            if "=" not in clause:
                raise ValueError(f"malformed fault clause {clause!r}")
            key, _, body = clause.partition("=")
            key = key.strip()
            try:
                if key == "seed":
                    seed = int(body)
                elif key == "loss":
                    target, magnitude, start, end = _split_clause(body)
                    faults.append(MessageLoss(
                        kinds=tuple(target.split("+")), rate=magnitude,
                        start=start, end=end,
                    ))
                elif key == "link":
                    target, magnitude, start, end = _split_clause(body)
                    faults.append(LinkFault(
                        selector=target, factor=magnitude,
                        start=start, end=end,
                    ))
                elif key == "slow":
                    target, magnitude, start, end = _split_clause(body)
                    faults.append(ComputeSlowdown(
                        machine=int(target), speed=magnitude,
                        start=start, end=end,
                    ))
                elif key == "outage":
                    target, _, window = body.partition("@")
                    start, end = _parse_window(window)
                    faults.append(ServerOutage(
                        machine=int(target), start=start, end=end,
                    ))
                else:
                    raise ValueError(f"unknown fault kind {key!r}")
            except ValueError:
                raise
            except Exception as exc:  # int()/float() parse failures
                raise ValueError(
                    f"malformed fault clause {clause!r}: {exc}"
                ) from None
        return cls(seed=seed, faults=tuple(faults))


def _split_clause(body: str):
    """``target*magnitude[@start:end]`` -> (target, magnitude, start, end)."""
    spec, _, window = body.partition("@")
    target, sep, magnitude = spec.rpartition("*")
    if not sep:
        raise ValueError(f"expected 'target*magnitude', got {spec!r}")
    start, end = _parse_window(window)
    return target.strip(), float(magnitude), start, end


def _parse_window(window: str):
    if not window:
        return 0.0, _INF
    start_text, sep, end_text = window.partition(":")
    if not sep:
        raise ValueError(f"expected 'start:end' window, got {window!r}")
    start = float(start_text)
    end = _INF if end_text in ("", "inf") else float(end_text)
    return start, end
