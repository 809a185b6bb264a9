"""The fluid network's kernel in numpy and its bookkeeping in Python:
the reference.

The twin of the extension's fluid entries: the arithmetic (``ledger``,
``tables``, ``advance``, ``admit``, ``retire``, ``settle`` and
``waterfill``), the network's bookkeeping around it (``stage(net,
flow_type, paths, path_indices, sizes, latencies, tags)``,
``activate(net, flow)``, ``fire(net, event)`` and ``recompute(net)``),
the ``Flow`` type
and the ``FluidNetwork`` base, entry for entry.  The C loops reproduce
this arithmetic bit for bit (``repro.netsim._waterfill`` says how); the
numpy water-fill scans every round and keeps no round log, so the fill
arrays go unread.  A network runs a kernel once its ``_kernel`` is set to
it: :data:`NUMPY` (the package itself, when installed in place of the
extension), or :data:`UNCOALESCED`, the every-link fill that compacts
after every retirement.
"""

from __future__ import annotations

import itertools
import operator
from types import SimpleNamespace
from typing import Hashable, Optional, Tuple

import numpy as np

_INF = float("inf")


class Flow:
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
    extension's ``Flow`` type keeps the same fields in C; the views
    (``remaining``, ``rate``, ``duration``) are
    :class:`repro.netsim.fluid.Flow`'s, which subclasses either.
    """

    _ids = itertools.count()

    __slots__ = (
        "id", "path", "path_index", "size", "latency",
        "tag", "created_at", "started_at", "completed_at", "done",
        "_net", "_row", "_remaining", "_rate",
    )

    def __init__(
        self,
        env,
        path: Tuple[Hashable, ...],
        path_index: Tuple[int, ...],
        size: float,
        latency: float,
        tag: Optional[Hashable] = None,
    ):
        _check_amount("size", size)
        _check_amount("latency", latency)
        self.id = next(Flow._ids)
        self.path = path
        self.path_index = path_index
        self.size = float(size)
        self.latency = float(latency)
        self.tag = tag
        self.created_at = env.now
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.done = env.event()
        # While active, remaining/rate live in the network's packed arrays;
        # _net/_row point at the row.  Before activation and after
        # completion the cached scalars below are authoritative.
        self._net = None
        self._row = -1
        self._remaining = float(size)
        self._rate = 0.0


class FluidNetwork:
    """The network's scalar state and flow list, which the extension keeps
    in the C struct of its ``FluidNetwork`` type; here, the instance
    dict of :class:`repro.netsim.fluid.FluidNetwork`."""


class NumpyKernel:
    """The fluid kernel in numpy and the bookkeeping around it in Python:
    the reference the C loops reproduce.

    ``coalesce=False`` (:data:`UNCOALESCED`) fills over every registered
    link instead of only the loaded ones, and compacts the ledger after
    every retirement instead of once half its rows are dead; both are
    bit-identical to the coalesced kernel (see :func:`_fill` and
    ``fire``).
    """

    def __init__(self, coalesce: bool = True):
        self.coalesce = coalesce

    @staticmethod
    def ledger(**arrays: np.ndarray) -> SimpleNamespace:
        """The arrays, by name: the flow ledger or the solve tables."""
        return SimpleNamespace(**arrays)

    tables = ledger

    @staticmethod
    def advance(t: SimpleNamespace, n: int, dt: float) -> None:
        """Move ``rate * dt`` bytes on each of the first ``n`` rows."""
        moved = t.rates[:n] * dt
        positive = moved > 0
        if positive.any():
            remaining = t.remaining[:n]
            np.maximum(remaining - moved, 0.0, out=remaining)
            # Accumulate per-link bytes in (flow, link-in-path) order —
            # the same float addition order as a per-flow loop.
            paths = t.paths[:n]
            mask = (paths >= 0) & positive[:, None]
            np.add.at(
                t.link_bytes,
                paths[mask],
                np.broadcast_to(moved[:, None], (n, 2))[mask],
            )

    def admit(self, t: SimpleNamespace, row: int, dt: float, l0: int,
              l1: int, size: float, gid: int) -> None:
        """One arrival: advance rows ``[0, row)`` by ``dt``, then write
        row ``row`` (path ``(l0, l1)``, ``l1 = -1`` for one link; remaining
        ``size``, rate 0, ``size``, group ``gid``, live) and count it in
        its group and on its links."""
        if dt > 0:
            self.advance(t, row, dt)
        t.paths[row] = (l0, l1)
        t.remaining[row] = size
        t.rates[row] = 0.0
        t.sizes[row] = size
        t.gids[row] = gid
        t.live[row] = True
        t.group_count[gid] += 1
        t.load_counts[l0] += 1
        if l1 >= 0:
            t.load_counts[l1] += 1

    def retire(self, t: SimpleNamespace, n: int, dt: float, now: float,
               eps: float) -> int:
        """One completion timer: advance by ``dt``, then tombstone and
        uncount (group, links) the rows that are done and write
        them, ascending, to ``t.retired``; returns their count.

        A live row is done when it is within ``eps * size + eps`` of zero,
        or when it moves and its own ETA is below the clock's resolution
        (``now + eta <= now``); every other row re-arms.  A stale timer
        looking at a row with real bytes left (its rate was rescaled by
        ``set_capacity`` mid-flight) therefore retires nothing, so the
        caller re-solves and re-arms.
        """
        if dt > 0:
            self.advance(t, n, dt)
        remaining = t.remaining[:n]
        rates = t.rates[:n]
        # Tombstoned rows sit at ~0 remaining; only live rows finish.
        finished = (remaining <= eps * t.sizes[:n] + eps) & t.live[:n]
        # Small flows are left ~rate*ulp(now) bytes by the
        # ``remaining -= rate*dt`` cancellation: more than any relative
        # tolerance of a few-hundred-byte flow, yet with a completion time
        # below the clock's float resolution.  A timer for them can never
        # advance the clock, and retiring rows only frees capacity, so
        # every such row finishes now, together: one timer round each
        # would land them all at this same ``now``, a full solve apiece.
        moving = np.flatnonzero(rates > 0)
        finished[moving[now + remaining[moving] / rates[moving] <= now]] = True
        rows = np.flatnonzero(finished)
        # In-place scatter-decrements: exact integer arithmetic, and no
        # O(groups)/O(links) bincount allocation per instant.
        np.subtract.at(t.group_count, t.gids[rows], 1)
        paths = t.paths[rows]
        np.subtract.at(t.load_counts, paths[paths >= 0], 1)
        t.rates[rows] = 0.0
        t.live[rows] = False
        t.retired[:rows.size] = rows
        return rows.size

    def settle(self, t: SimpleNamespace, n: int, dt: float,
               grates: np.ndarray) -> float:
        """One re-solve: advance by ``dt``, give every live row its
        group's rate from ``grates`` and return the minimum ETA over the
        moving rows: NaN if any is NaN, -1 if no row moves."""
        if dt > 0:
            self.advance(t, n, dt)
        rates = t.rates[:n]
        live = t.live[:n]
        # Only live rows take the solved rate: a tombstoned row's rate
        # stays exactly 0 (what keeps it out of the byte advance and the
        # completion timer), and its group may be empty, whose rate no
        # fill defines.
        rates[live] = grates[t.gids[:n][live]]
        moving = rates > 0
        if not moving.any():
            return -1.0
        return float((t.remaining[:n][moving] / rates[moving]).min())

    def waterfill(self, num_links: int, num_groups: int,
                  t: SimpleNamespace, grates: np.ndarray) -> None:
        """Every round scans for its bottleneck: the numpy kernels keep
        no round log, so the fill arrays in ``t`` go unread."""
        load_counts = t.load_counts[:num_links]
        if self.coalesce:
            links = np.flatnonzero(load_counts > 0)
        else:
            links = np.arange(num_links, dtype=np.int64)
        _fill(t.capacity, load_counts, t.group_paths[:num_groups],
              t.group_count[:num_groups], t.csr, t.starts, links, grates)

    # -- the bookkeeping: ``FluidNetwork._stage``, ``_activate``, ``_fire``
    # and ``_recompute`` once the network runs this kernel.

    def stage(self, net, flow_type, paths, path_indices, sizes, latencies,
              tags) -> list:
        """A batch of flows, made and started in order as ``transfer``
        starts one, after every input is checked: a flow with a latency
        gets a timer calling ``net._activate_event`` (looked up once), any
        other activates at once.  Returns the flows."""
        count = len(paths)
        for name, items in (
            ("path_indices", path_indices), ("sizes", sizes),
            ("latencies", latencies), ("tags", tags),
        ):
            if len(items) != count:
                raise ValueError(
                    f"stage() got {count} paths but {len(items)} {name}"
                )
        for path, path_index, size, latency in zip(
            paths, path_indices, sizes, latencies
        ):
            _check_amount("size", size)
            _check_amount("latency", latency)
            _check_path_index(path, path_index, net._num_links)
        activate_event = None
        flows = []
        for path, path_index, size, latency, tag in zip(
            paths, path_indices, sizes, latencies, tags
        ):
            flow = flow_type(net.env, path, path_index, size, latency, tag)
            flows.append(flow)
            if latency > 0:
                if activate_event is None:
                    activate_event = net._activate_event
                timer = net.env.timeout(latency, value=flow)
                timer.callbacks.append(activate_event)
            else:
                net._activate(flow)
        return flows

    def activate(self, net, flow) -> None:
        """The flow starts now: its row, or at once its end."""
        flow.started_at = net.env.now
        if flow.size <= 0 or not flow.path:
            # Local copy or pure-latency message: completes instantly once
            # the latency delay has elapsed.
            _finish(net, flow)
            return
        row = net._n
        if row == net._remaining.shape[0]:
            net._grow_rows()
        path_index = flow.path_index
        gid = net._group_of.get(path_index)
        if gid is None:
            gid = net._intern_group(path_index)
        # One kernel call moves the earlier rows' bytes up to now (the
        # arrival's advance) and writes the new row.
        net._kernel.admit(
            net._ledger(), row, net._elapsed(), path_index[0],
            path_index[1] if len(path_index) > 1 else -1, flow.size, gid,
        )
        net._live_count += 1
        net._n = row + 1
        net._active.append(flow)
        flow._net = net
        flow._row = row
        net._schedule_recompute()

    def fire(self, net, event) -> None:
        """One completion timer (see ``FluidNetwork._on_timer_event``)."""
        if event._value != net._generation:
            return
        dt = net._elapsed()
        now = net._last_update
        n = net._n
        count = 0
        if n:
            count = net._kernel.retire(net._ledger(), n, dt, now, net._epsilon)
        if count:
            active = net._active
            finished = []
            for row in net._retired[:count].tolist():
                finished.append(active[row])
                active[row] = None
            net._dead_count += count
            net._live_count -= count
            if net._live_count == 0:
                net._active = []
                net._n = 0
                net._dead_count = 0
            elif not self.coalesce or (
                net._dead_count >= 64 and 2 * net._dead_count >= n
            ):
                net._compact()
            for flow in finished:
                flow._net = None
                flow._remaining = 0.0
                flow._rate = 0.0
                flow.completed_at = now
                net.total_bytes_completed += flow.size
                flow.done.succeed()
        net._schedule_recompute()

    def recompute(self, net) -> None:
        """The deferred re-solve at the end of an instant."""
        net._recompute_pending = False
        _reschedule(net)


def _check_amount(name: str, value) -> None:
    if not 0.0 <= value < _INF:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _check_path_index(path, path_index, num_links: int) -> None:
    """One or two link indices in ``[0, num_links)``, or none for an empty
    path."""
    hops = len(path_index) if isinstance(path_index, tuple) else -1
    if hops == 0 and not path:
        return
    if not 1 <= hops <= 2:
        raise TypeError(
            "a flow's path_index must be a tuple of one or two link "
            f"indices, not {path_index!r}"
        )
    for link in path_index:
        value = operator.index(link)
        if not 0 <= value < num_links:
            raise IndexError(f"link {value} is outside [0, {num_links})")


def _finish(net, flow) -> None:
    flow._net = None
    flow._remaining = 0.0
    flow._rate = 0.0
    flow.completed_at = net.env.now
    net.total_bytes_completed += flow.size
    flow.done.succeed()


def _reschedule(net) -> None:
    """Recompute rates and arm a timer for the next flow completion."""
    next_done = assign_rates(net)
    net._generation += 1
    if next_done is None:
        return
    timer = net.env.timeout(max(next_done, 0.0), value=net._generation)
    timer.callbacks.append(net._on_timer_event)


def settle_rates(net, grates: np.ndarray) -> Optional[float]:
    """Move bytes up to now, give every live row its group's rate
    from ``grates`` and return the earliest completion ETA over the
    moving rows: None when no row moves, NaN when any ETA is NaN."""
    next_done = net._kernel.settle(
        net._ledger(), net._n, net._elapsed(), grates
    )
    return None if next_done < 0 else next_done


def assign_rates(net) -> Optional[float]:
    """Water-filling max-min fair allocation (incremental, vectorized).

    Moves bytes up to now at the old rates, gives every live flow its
    new rate and returns the earliest completion ETA among the moving
    flows (None when none moves).

    The filling rounds run over path *groups* (flows with an identical
    link tuple) with multiplicities; see :func:`_fill`.  Every
    call with live rows fills into ``_grates`` through
    ``_waterfill.run``; the compiled fill resumes the last one at its
    first round a changed group count reaches, which changes no bit
    (DESIGN §8).
    """
    # Looked up at each re-solve, as the compiled recompute does, so a
    # wrapper of ``_waterfill.run`` sees every fill (and importing this
    # package does not import ``repro``).
    from repro.netsim import _waterfill

    if not net._n:
        net._advance()  # nothing in flight: only stamps the clock
        return None
    net._ensure_csr()
    _waterfill.run(
        net._kernel, net._num_links, net._num_groups,
        net._solve_tables, net._grates,
    )
    return settle_rates(net, net._grates)


def _fill(capacity, load_counts, gpaths, gcount, csr, starts, links,
          grates) -> None:
    """Progressive filling over the ascending link ids ``links``;
    overwrites ``grates`` with every group's rate.

    The rounds run over path groups with multiplicities, which is
    arithmetically identical to running over flows: a round fixes every
    unfixed flow crossing the bottleneck at the same share, and the
    residual update subtracts ``share * crossing_flow_count`` per link
    either way.  Filling over the loaded links only is bit-identical to
    filling over every link: a link with zero load has an infinite share
    in every round, so it is never the argmin bottleneck (ties on the
    share break toward the lowest index, and ``links`` ascends), and it
    receives no residual or load update that is ever read.  ``csr`` and
    ``starts`` are the link -> crossing groups adjacency over all links;
    the row of a loaded link lists its groups in the order a compacted
    adjacency would.
    """
    grates[:] = 0.0
    na = links.size
    if not na:
        return
    # The group -> link adjacency in the filled links' index space.
    position = np.full(load_counts.size, -1, dtype=np.int64)
    position[links] = np.arange(na, dtype=np.int64)
    gvalid = gpaths >= 0
    cpaths = np.full(gpaths.shape, -1, dtype=np.int64)
    np.place(cpaths, gvalid, position[gpaths[gvalid]])
    cvalid = cpaths >= 0
    rowsum = cvalid.sum(axis=1)

    residual = capacity[links]
    load = load_counts[links].astype(float)
    gcount_f = gcount.astype(float)
    gunfixed = np.ones(gcount.size, dtype=bool)
    unfixed_flows = int(gcount.sum())
    shares = np.empty(na)
    while True:
        positive = load > 0
        np.divide(residual, load, out=shares, where=positive)
        shares[~positive] = np.inf
        bottleneck = int(shares.argmin())
        share = shares[bottleneck]
        if not np.isfinite(share):
            break
        # Floating-point residue can push a residual slightly negative;
        # never hand out a negative rate.
        share = max(share, 0.0)
        link = links[bottleneck]
        candidates = csr[starts[link]: starts[link + 1]]
        selected = candidates[gunfixed[candidates]]
        if not selected.size:
            break
        grates[selected] = share
        counts = np.bincount(
            cpaths[selected][cvalid[selected]],
            weights=gcount_f[selected].repeat(rowsum[selected]),
            minlength=na,
        )
        residual -= share * counts
        load -= counts
        residual[bottleneck] = 0.0
        load[bottleneck] = 0.0
        gunfixed[selected] = False
        unfixed_flows -= int(gcount[selected].sum())
        if unfixed_flows <= 0:
            break


NUMPY = NumpyKernel()
UNCOALESCED = NumpyKernel(coalesce=False)
