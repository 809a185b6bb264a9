"""Fluid (max-min fair share) network simulation.

Concurrent transfers are modelled as fluid flows: every active flow crossing
a link shares that link's capacity max-min fairly, and rates are recomputed
whenever a flow starts or finishes (progressive filling / water filling).
This is the standard flow-level abstraction used by network simulators and it
reproduces exactly the contention effects the paper's scheduling strategies
manipulate: egress serialization on NVSwitch ports (Fig. 7), sharing of the
PCIe-switch uplink (Fig. 8/9), and the NIC bottleneck for cross-machine
pulls.

Per-flow latency (the sum of link latencies on the path) is charged once, as
a startup delay before the flow begins moving bytes.

Implementation notes (this module is the simulator's hottest path — the
solver reruns on every flow arrival/departure):

* Link ids are interned to integer indices at registration; capacities,
  per-link byte counters and per-link load counts live in numpy arrays that
  grow geometrically (``add_link`` is amortized O(1)).
* Per-flow state (packed ``(F, 2)`` path matrix, remaining bytes, rates)
  is maintained *incrementally* as flows join and leave instead of being
  rebuilt for every water-filling pass; ``Flow.remaining``/``Flow.rate``
  are views into those arrays while the flow is active.
* Flows are grouped by identical path: the water-filling rounds run over
  path *groups* (with multiplicities).  Every re-solve fills, and the
  compiled fill resumes the last fill at its first round a changed
  group count reaches (see ``_waterfill``); a capacity change discards
  the round log.  All shortcuts are arranged to be bit-identical to a
  fresh global recompute (same float operations in the same order),
  which the golden-metrics battery and a hypothesis property test pin
  down.
* Coalescing: the path group acts as a macro-flow and the packed member
  rows are its byte ledger.  Finishing members are *tombstoned* (rate
  zeroed, live bit cleared, group count and link loads decremented) in
  O(finished) instead of compacting the whole ledger per completion
  event, and the arrays are compacted only when at least half the rows
  are dead (amortized O(1) per flow).  The solver additionally restricts
  each filling pass to links with at least one crossing flow.  Both
  shortcuts are bit-identical to the uncoalesced reference (the tests'
  ``reference.fluid.UNCOALESCED``), which compacts after every
  retirement and fills over every link: tombstoned rows have rate
  exactly 0 so they move no bytes and touch no link counters, compaction
  only relocates rows, and inactive links can never be the bottleneck of
  a filling round.
* The arithmetic runs in the compiled kernel
  (:mod:`repro.netsim._waterfill`), and so does the bookkeeping around
  it: staging a batch of flows, a flow's activation, each completion
  timer and each re-solve are one C call apiece (the extension's
  ``stage``, ``activate``, ``fire`` and ``recompute``, bound in the
  ``_kernel`` setter), which read the network's scalar state and flow
  list as fields of its C base type, make, stamp and succeed the flows,
  and create the timers; a re-solve fills through ``_waterfill.run``.
  The network's flows are :class:`Flow`, whose fields live in the
  extension's ``Flow`` type, so the C calls read and write them directly;
  ``stage`` and the constructor check the size and latency, stamp the
  creation time and make the ``done`` event.  ``stage`` makes a whole
  batch in order, each flow as :meth:`FluidNetwork.transfer` (its
  one-flow case) makes one, so the All-to-All admits a collective in one
  call with no Python frame per flow.  So a flow costs its share of one
  C call to stage, one C call to activate (the byte advance up to its
  arrival and its whole row) and its share of one C call to retire
  (``retire``, the tombstones in ``_active``, the compaction trigger and
  the ``done`` events, in ascending row order), plus the Python frames of
  the ``_activate_event``/``_on_timer_event`` methods that reach them
  (and of ``transfer`` for a flow staged alone).  Python keeps what is
  rare: the row-array growth, the group interning (when a path has no
  group yet), the compaction and the repacking of the solve tables after
  an interning (:meth:`_ensure_csr`).
* Rate recomputation is deferred to the end of the simulated instant
  (``Environment.defer_to_instant_end``): a burst of arrivals/finishes at
  one timestamp — spread over any number of kernel events — triggers one
  water-filling pass for the whole cohort, not one per event.
"""

from __future__ import annotations

import functools
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from . import _waterfill
from .. import _native
from ..simkit import Environment

__all__ = ["Flow", "FluidNetwork"]

_INF = float("inf")
_EPSILON = 1e-12


_ext = _native.extension()


class Flow(_ext.Flow):
    """One transfer in flight.

    Attributes:
        path: directed link ids the flow crosses (may be empty for a
            device-local copy).
        size: total bytes.
        latency: seconds before the first byte moves.
        remaining: bytes still to move.
        rate: current fair-share rate in bytes/second (0 until activated).
        done: event triggered (with ``None``) when the last byte lands.

    ``size`` and ``latency`` must be finite and non-negative.  The
    extension's ``Flow`` holds the fields, so the compiled bookkeeping
    reads and writes them without attribute lookups; this class adds the
    views and the repr.
    """

    __slots__ = ()

    @property
    def remaining(self) -> float:
        """Bytes still to move (live view while the flow is active)."""
        net = self._net
        if net is not None:
            return float(net._remaining[self._row])
        return self._remaining

    @property
    def rate(self) -> float:
        """Current fair-share rate (live view while the flow is active)."""
        net = self._net
        if net is not None:
            return float(net._rates[self._row])
        return self._rate

    @property
    def duration(self) -> Optional[float]:
        """Wall time from creation to completion (None while in flight)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at

    def __repr__(self) -> str:
        return (
            f"<Flow {self.id} size={self.size:.0f}B "
            f"remaining={self.remaining:.0f}B rate={self.rate:.3g}B/s>"
        )


class _LinkBytesView:
    """Read-only mapping from link id to total bytes moved over it."""

    def __init__(self, network: "FluidNetwork"):
        self._network = network

    def __getitem__(self, link_id: Hashable) -> float:
        index = self._network._index[link_id]
        return float(self._network._link_bytes[index])

    def __contains__(self, link_id: Hashable) -> bool:
        return link_id in self._network._index

    def items(self):
        for link_id, index in self._network._index.items():
            yield link_id, float(self._network._link_bytes[index])


class FluidNetwork(_ext.FluidNetwork):
    """Max-min fair bandwidth sharing over a set of directed links.

    The network's scalar state and flow list live in the C struct of the
    extension's ``FluidNetwork`` type, where the compiled bookkeeping
    reads them as fields; the Python code reads the same names through
    the type's members.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._index: Dict[Hashable, int] = {}
        # Per-link arrays; only the first _num_links entries are valid.
        self._capacity = np.zeros(0)
        self._link_bytes = np.zeros(0)
        self._load_counts = np.zeros(0, dtype=np.int64)
        # Capacity over time, for utilization: each link's registration
        # time, and its capacity-seconds up to its last rescale (or
        # registration), which ``_capacity_since`` stamps.
        self._link_added = np.zeros(0)
        self._capacity_seconds = np.zeros(0)
        self._capacity_since = np.zeros(0)
        self._num_links = 0
        # Per-flow packed state; rows parallel _active, first _n valid.
        self._active: List[Flow] = []
        self._paths = np.full((0, 2), -1, dtype=np.int64)
        self._remaining = np.zeros(0)
        self._rates = np.zeros(0)
        self._sizes = np.zeros(0)
        self._gids = np.zeros(0, dtype=np.int64)
        # Tombstone ledger: _live marks rows whose flow is still in flight;
        # _active carries None at dead rows so row indices stay aligned
        # until the next compaction.
        self._live = np.zeros(0, dtype=bool)
        # Out-buffer of the kernel's retire: the rows it retired.
        self._retired = np.zeros(0, dtype=np.int64)
        self._live_count = 0
        self._dead_count = 0
        self._n = 0
        # Path groups: flows with identical path share a group; the solver
        # runs over groups with multiplicities.  Groups are never deleted.
        self._group_of: Dict[Tuple[int, ...], int] = {}
        self._group_paths = np.full((0, 2), -1, dtype=np.int64)
        self._group_count = np.zeros(0, dtype=np.int64)
        self._num_groups = 0
        # Resolved link-id tuples -> packed index tuples (routes repeat).
        self._path_cache: Dict[Tuple[Hashable, ...], Tuple[int, ...]] = {}
        # link -> crossing-groups CSR adjacency; both the group table and
        # the link set are append-only, so it is rebuilt only on growth.
        self._csr_groups: Optional[np.ndarray] = None
        self._csr_starts: Optional[np.ndarray] = None
        # The kernel's packs of the network's arrays (see _waterfill): the
        # solve tables (with the CSR) are dropped when a link or group is
        # interned; the flow ledger (per-row arrays, link bytes and loads,
        # group counts) wherever one of its arrays is reallocated.
        self._solve_tables = None
        self._flow_ledger = None
        # The compiled water-fill's round log, group-count snapshot, list
        # of changed groups, group rates and work arrays (see
        # ``_waterfill``), sized for the link and group tables and
        # reallocated with them.  ``_grates`` is its group-rate array.
        self._grow_fill()
        self._last_update = env.now
        self._generation = 0
        self._recompute_pending = False
        # The retirement rule's residue tolerance (see the kernel's retire).
        self._epsilon = _EPSILON
        self.total_bytes_completed = 0.0
        self._kernel = _ext

    # -- topology -----------------------------------------------------------

    def add_link(self, link_id: Hashable, bandwidth: float) -> None:
        """Register a directed link with ``bandwidth`` bytes/second."""
        _check_bandwidth(bandwidth)
        if link_id in self._index:
            raise ValueError(f"duplicate link id: {link_id!r}")
        index = self._num_links
        if index == self._capacity.shape[0]:
            grown = max(16, 2 * index)
            self._capacity = _grow(self._capacity, grown)
            self._link_bytes = _grow(self._link_bytes, grown)
            self._load_counts = _grow(self._load_counts, grown)
            self._link_added = _grow(self._link_added, grown)
            self._capacity_seconds = _grow(self._capacity_seconds, grown)
            self._capacity_since = _grow(self._capacity_since, grown)
            self._grow_fill()
        self._index[link_id] = index
        self._capacity[index] = float(bandwidth)
        self._link_bytes[index] = 0.0
        self._load_counts[index] = 0
        self._link_added[index] = self._capacity_since[index] = self.env.now
        self._capacity_seconds[index] = 0.0
        self._num_links = index + 1
        self._solve_tables = None
        self._capacities_changed()

    def capacity(self, link_id: Hashable) -> float:
        return float(self._capacity[self._index[link_id]])

    def links(self) -> List[Hashable]:
        """All registered link ids, in registration order."""
        return list(self._index)

    def set_capacity(self, link_id: Hashable, bandwidth: float) -> None:
        """Rescale a link's bandwidth mid-flight (fault injection).

        Bytes already moved are accounted at the old rates before the
        change; active flows crossing the link are re-waterfilled at the
        new capacity from the current instant.
        """
        _check_bandwidth(bandwidth)
        index = self._index[link_id]
        self._advance()
        now = self.env.now
        self._capacity_seconds[index] += self._capacity[index] * (
            now - self._capacity_since[index]
        )
        self._capacity_since[index] = now
        self._capacity[index] = float(bandwidth)
        self._capacities_changed()
        self._schedule_recompute()

    def _capacities_changed(self) -> None:
        """Capacities changed: the water-fill's round log is discarded."""
        self._fill_arrays["meta"][0] = 0

    @property
    def link_bytes(self) -> _LinkBytesView:
        return _LinkBytesView(self)

    # -- transfers ----------------------------------------------------------

    def resolve_path(
        self, path: Iterable[Hashable]
    ) -> Tuple[Tuple[Hashable, ...], Tuple[int, ...]]:
        """Intern ``path`` and return ``(path tuple, packed index tuple)``.

        Callers that issue many transfers over the same route (the fabric,
        the collectives) resolve once and pass ``path_index`` to
        :meth:`transfer`, skipping the per-call cache lookup.
        """
        path = tuple(path)
        path_index = self._path_cache.get(path)
        if path_index is None:
            try:
                path_index = tuple(self._index[link_id] for link_id in path)
            except KeyError as exc:
                raise KeyError(f"unknown link id: {exc.args[0]!r}") from None
            if len(path_index) > 2:
                raise ValueError(
                    f"paths are at most two links, got {len(path_index)}"
                )
            if len(set(path_index)) < len(path_index):
                raise ValueError(f"path repeats a link: {path!r}")
            self._path_cache[path] = path_index
        return path, path_index

    def transfer(
        self,
        path: Iterable[Hashable],
        size: float,
        latency: float = 0.0,
        tag: Optional[Hashable] = None,
        path_index: Optional[Tuple[int, ...]] = None,
    ) -> Flow:
        """Start a transfer of ``size`` bytes over ``path``.

        Returns the :class:`Flow`; wait on ``flow.done`` for completion.
        Zero-size transfers and empty paths complete after ``latency`` only.
        ``path_index`` is the pre-resolved result of :meth:`resolve_path`;
        when given, ``path`` must already be the interned tuple.
        """
        if path_index is None:
            path, path_index = self.resolve_path(path)
        return self._stage((path,), (path_index,), (size,), (latency,), (tag,))[0]

    def _activate_event(self, event) -> None:
        self._activate(event._value)

    # The bookkeeping of a flow's life: ``_stage(paths, path_indices,
    # sizes, latencies, tags)``, ``_activate(flow)``, ``_fire(event)`` and
    # the deferred ``_recompute()`` are the kernel's ``stage``,
    # ``activate``, ``fire`` and ``recompute`` bound to this network (see
    # the ``_kernel`` setter).  ``_stage`` makes and starts a batch of
    # flows in order, each as ``transfer`` does, and returns them: a flow
    # with a latency gets a ``Timeout`` calling ``_activate_event``, looked
    # up once per batch, and any other activates at once.

    # -- packed per-flow state ----------------------------------------------

    def _grow_rows(self) -> None:
        """Double the per-row arrays (every row is taken)."""
        grown = max(32, 2 * self._n)
        self._paths = _grow(self._paths, grown, fill=-1)
        self._remaining = _grow(self._remaining, grown)
        self._rates = _grow(self._rates, grown)
        self._sizes = _grow(self._sizes, grown)
        self._gids = _grow(self._gids, grown)
        self._live = _grow(self._live, grown)
        self._retired = _grow(self._retired, grown)
        self._flow_ledger = None

    def _intern_group(self, path_index: Tuple[int, ...]) -> int:
        gid = self._num_groups
        if gid == self._group_count.shape[0]:
            grown = max(16, 2 * gid)
            self._group_paths = _grow(self._group_paths, grown, fill=-1)
            self._group_count = _grow(self._group_count, grown)
            self._grow_fill()
        self._group_paths[gid] = -1
        self._group_paths[gid, : len(path_index)] = path_index
        self._group_count[gid] = 0
        self._num_groups = gid + 1
        self._group_of[path_index] = gid
        self._solve_tables = None
        return gid

    def _compact(self) -> None:
        """Reclaim tombstoned rows, preserving live-row order (and hence
        every downstream float operation's order)."""
        n = self._n
        live = self._live[:n]
        k = self._live_count
        self._paths[:k] = self._paths[:n][live]
        self._remaining[:k] = self._remaining[:n][live]
        self._rates[:k] = self._rates[:n][live]
        self._sizes[:k] = self._sizes[:n][live]
        self._gids[:k] = self._gids[:n][live]
        self._live[:k] = True
        self._active = [flow for flow in self._active if flow is not None]
        for row, flow in enumerate(self._active):
            flow._row = row
        self._n = k
        self._dead_count = 0

    # -- recompute scheduling ------------------------------------------------

    def _schedule_recompute(self) -> None:
        """Coalesce rate recomputation: many flows starting or finishing at
        the same instant (e.g. the prefetch burst at iteration start) cause
        one water-filling pass, not one per flow.  The pass is deferred to
        the end of the instant, so the whole same-timestamp cohort —
        across any number of kernel events — shares a single solve."""
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.env.defer_to_instant_end(self._recompute)

    # -- fluid mechanics ----------------------------------------------------

    def _elapsed(self) -> float:
        """Seconds since the last byte update; stamps the update at now."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        return dt

    @property
    def _kernel(self):
        """The kernel this network runs: the extension module."""
        return self._kernel_in_use

    @_kernel.setter
    def _kernel(self, kernel) -> None:
        # The bookkeeping goes with the kernel.  Packs belong to their
        # kernel, so the old ones are dropped, and a kernel that lists no
        # changed group (the tests' numpy reference) leaves a round log
        # the compiled fill cannot resume from.
        self._kernel_in_use = kernel
        self._stage = functools.partial(kernel.stage, self, Flow)
        self._activate = functools.partial(kernel.activate, self)
        self._fire = functools.partial(kernel.fire, self)
        self._recompute = functools.partial(kernel.recompute, self)
        self._flow_ledger = None
        self._solve_tables = None
        self._capacities_changed()

    def _grow_fill(self) -> None:
        """Reallocate the water-fill's arrays for the link and group
        tables' sizes, with nothing logged; the packs holding the old
        ones are dropped."""
        fill = self._fill_arrays = _waterfill.fill_arrays(
            self._capacity.shape[0], self._group_count.shape[0]
        )
        self._grates = fill["group_rates"]
        self._flow_ledger = None
        self._solve_tables = None

    def _ledger(self):
        """The flow ledger's arrays, packed for the kernel (see
        ``_waterfill``)."""
        ledger = self._flow_ledger
        if ledger is None:
            ledger = self._flow_ledger = self._kernel.ledger(
                rates=self._rates,
                remaining=self._remaining,
                paths=self._paths,
                link_bytes=self._link_bytes,
                sizes=self._sizes,
                live=self._live,
                gids=self._gids,
                group_count=self._group_count,
                load_counts=self._load_counts,
                retired=self._retired,
                changes=self._fill_arrays["changes"],
                listed=self._fill_arrays["listed"],
            )
        return ledger

    def _advance(self) -> None:
        """Move bytes for all active flows since the last update."""
        dt = self._elapsed()
        n = self._n
        if dt > 0 and n:
            self._kernel.advance(self._ledger(), n, dt)

    def _ensure_csr(self) -> None:
        """Build the link -> crossing groups adjacency (CSR over sorted
        flat links) and pack the solve tables, unless they are packed:
        both stay valid until the next link or group is interned, which
        drops the tables."""
        if self._solve_tables is not None:
            return
        num_links, num_groups = self._num_links, self._num_groups
        gpaths = self._group_paths[:num_groups]
        gvalid = gpaths >= 0
        flat_links = gpaths[gvalid]
        flat_groups = np.broadcast_to(
            np.arange(num_groups, dtype=np.int64)[:, None],
            (num_groups, 2),
        )[gvalid]
        order = np.argsort(flat_links, kind="stable")
        sorted_links = flat_links[order]
        self._csr_groups = flat_groups[order]
        self._csr_starts = np.searchsorted(
            sorted_links, np.arange(num_links + 1, dtype=np.int64)
        )
        self._solve_tables = self._kernel.tables(
            capacity=self._capacity,
            load_counts=self._load_counts,
            group_paths=self._group_paths,
            group_count=self._group_count,
            csr=self._csr_groups,
            starts=self._csr_starts,
            **self._fill_arrays,
        )

    def _on_timer_event(self, event) -> None:
        """One completion timer: move bytes up to now, retire the rows that
        are done (see the kernel's ``retire``), drop their flows from
        ``_active`` and finish them in ascending row order, then re-solve.

        A timer superseded by a newer reschedule does nothing.  Retired
        rows keep their position (so live rows never move and no float is
        touched) until :meth:`_compact` reclaims them, once half the rows
        are dead."""
        self._fire(event)

    # -- self-check ----------------------------------------------------------

    def certify(self) -> None:
        """Check the live rates for max-min fairness without the solver.

        A max-min fair allocation is feasible (each link's rate sum is at
        most its capacity) and gives every moving flow a bottleneck: a
        saturated link on its path on which no flow is faster (Bertsekas
        and Gallager, *Data Networks*, ch. 6).  Raises AssertionError
        naming the first violation.  Call it after a re-solve: between an
        arrival or ``set_capacity`` and the end of its instant the rates
        are not yet solved.

        Tolerance: link ``l`` with capacity ``C`` and ``n`` live flows
        gets ``(3n + 2)·u·C`` (``u = 2**-53``) on its rate sum and on
        rate comparisons.  The fill reaches ``l``'s residual through at
        most ``n`` rounds of two rounded operations, ``r - s·c``, each
        off by at most ``u`` of a magnitude below ``C``: ``2n·u·C``.  The
        share ``r/load`` and its comparison with the others' add ``2u·C``,
        and this check's own ``n``-term sum ``n·u·C``.
        """
        n = self._n
        live = self._live[:n]
        rates = self._rates[:n][live]
        paths = self._paths[:n][live]
        if not (rates >= 0.0).all():
            raise AssertionError(f"a live rate is negative or NaN: {rates}")
        num_links = self._num_links
        capacity = self._capacity[:num_links]
        crossing = paths >= 0
        links = paths[crossing]
        flow_rates = np.broadcast_to(rates[:, None], paths.shape)[crossing]
        total = np.bincount(links, weights=flow_rates, minlength=num_links)
        count = np.bincount(links, minlength=num_links)
        tolerance = (3 * count + 2) * (np.finfo(float).eps / 2) * capacity
        over = np.flatnonzero(~(total <= capacity + tolerance))
        if over.size:
            link = int(over[0])
            raise AssertionError(
                f"link {self.links()[link]!r} carries {float(total[link])!r} "
                f"B/s over its capacity {float(capacity[link])!r}"
            )
        fastest = np.zeros(num_links)
        np.maximum.at(fastest, links, flow_rates)
        saturated = total >= capacity - tolerance
        at = np.where(crossing, paths, 0)
        bottleneck = crossing & saturated[at] & (
            fastest[at] <= rates[:, None] + tolerance[at]
        )
        stuck = np.flatnonzero((rates > 0.0) & ~bottleneck.any(axis=1))
        if stuck.size:
            row = int(np.flatnonzero(live)[stuck[0]])
            raise AssertionError(
                f"flow {self._active[row]!r} at {float(rates[stuck[0]])!r} "
                "B/s has no saturated link on which it is the fastest"
            )

    # -- introspection -------------------------------------------------------

    def link_utilization(self, link_id: Hashable, elapsed: float) -> float:
        """Average utilization of a link over ``elapsed`` seconds, against
        its capacity averaged over its life so far (a rescaled link's
        capacity-seconds, not its capacity now)."""
        if elapsed <= 0:
            return 0.0
        index = self._index[link_id]
        capacity = self._capacity[index]
        now = self.env.now
        added = self._link_added[index]
        since = self._capacity_since[index]
        if since != added:
            capacity = (
                self._capacity_seconds[index] + capacity * (now - since)
            ) / (now - added)
        return float(self._link_bytes[index] / (capacity * elapsed))


def _check_bandwidth(bandwidth: float) -> None:
    if not 0.0 < bandwidth < _INF:
        raise ValueError(
            f"bandwidth must be positive and finite, got {bandwidth}"
        )


def _grow(array: np.ndarray, size: int, fill=0) -> np.ndarray:
    """Return ``array`` grown to ``size`` rows, new entries set to ``fill``.

    Works for both 1-D scalar arrays and 2-D row matrices (the trailing
    dimensions are preserved); only the leading dimension grows.
    """
    grown = np.full((size,) + array.shape[1:], fill, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown
