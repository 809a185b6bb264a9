"""The fluid network's kernel: its numerics behind one interface.

:class:`~repro.netsim.fluid.FluidNetwork` owns the flow ledger (the
packed per-row arrays, the per-link bytes and loads, the per-group flow
counts) and the solve tables; a *kernel* does the arithmetic on them.
Two kernels share one arithmetic interface, entry for entry:

* the compiled kernel, C loops in the simulator's one extension module
  (``repro/_native.c``, built by :mod:`repro._native` with plain
  ``cc -O2 -ffp-contract=off``, no third-party build system): the
  extension module itself, whose entries are ``METH_FASTCALL`` builtins;
* :class:`NumpyKernel`, the same arithmetic in numpy: the reference the
  C loops reproduce bit for bit.

Their entries:

* ``ledger(**arrays)`` packs the ledger's arrays into the object the
  next four take; ``tables(**arrays)`` packs the solve tables and a
  water-fill's round log, end state and work arrays (:func:`fill_arrays`)
  into the one ``waterfill`` takes.  The compiled pack holds a buffer
  view of every array, which checks its dtype, C-contiguity and
  writability and keeps it alive; the numpy pack is a namespace of the
  arrays.  Rate
  arrays are passed as they are.
* ``advance(ledger, n, dt)``, the per-flow byte accounting behind every
  rescale;
* ``admit(ledger, row, dt, l0, l1, size, gid)``, one arrival: the byte
  advance of the rows before ``row``, then the new row's path slots,
  remaining bytes, rate, size, group and live bit, and its group and
  link counts;
* ``retire(ledger, n, dt, now, eps)``, one completion timer: the
  byte advance, the finished-row selection (one residue rule), and the
  tombstoning of those rows, which leave their counts; compiled, one
  pass over the rows does all three, row by row;
* ``settle(ledger, n, dt, grates)``, one re-solve after the rates are
  known: the byte advance, the scatter of the group rates onto the live
  rows, and the earliest completion ETA; compiled, also one pass;
* ``waterfill(num_links, num_groups, tables, grates)``, the
  progressive-filling solve, whose rounds are inherently sequential (each
  fixes one bottleneck link and updates the links its flows cross).
  Callers go through :func:`run`, the one water-fill entry point;
* compiled only: ``activate(net, flow)``, ``fire(net, event)`` and
  ``recompute(net)``, the network's bookkeeping around those calls, which
  the network binds to itself with the kernel: a flow's activation, one
  completion timer (the ``retire`` call, the flows' tombstones and
  ``done`` events, the deferred re-solve) and the re-solve at the end of
  an instant (the fill through :func:`run`, ``settle`` and the next
  completion timer).  They are C over the network's state, which look
  :func:`run` up on this module at each re-solve, so a wrapper of it
  sees every fill.  They take the extension's ``Flow`` (the base of
  :class:`~repro.netsim.fluid.Flow`) and read and write its fields
  directly.  With the numpy kernel, the network binds its own Python
  bodies (``_activate_python``, ``_fire_python`` and
  ``_recompute_python``), the reference, and makes
  :class:`~repro.netsim.fluid.PythonFlow` flows.

:func:`kernel` is the one place that picks between the two: the extension
module, or :data:`NUMPY` when ``REPRO_WATERFILL=python`` is set or the
build fails (one :class:`RuntimeWarning` then says why).  The uncoalesced
reference network (``FluidNetwork(coalesce=False)``) always runs
:data:`REFERENCE`, the numpy kernel filling over every link, so it runs
no compiled code.

Compiled, a fluid instant costs one C call instead of a score of small
numpy calls, whose per-call overhead, not their arithmetic, was the cost.
Bit-identity with the numpy kernel is a hard requirement (the golden
tests and ``baseline --tolerance 0`` pin simulated times exactly), so the
C code reproduces the float semantics operation for operation:

* shares are ``residual / load`` where ``load > 0`` else ``+inf``, and
  the bottleneck is the minimal ``(share, link index)`` pair — numpy's
  ``argmin`` tie-break — with a NaN share mapped to ``-inf`` (``argmin``'s
  "first NaN wins"), which then ends the loop through ``isfinite``.  The
  kernel finds it by a linear scan over a compact list of the loaded,
  unfixed links: links with no load have an infinite share and are never
  listed, and a link leaves the list when it is fixed or its load drains
  to zero.  (A lazy-invalidation heap did this before; at 32 machines
  91% of its pops were stale entries.)  Links a round does not touch
  keep their residual and load bitwise, so their keys stay valid;
* the compiled fill keeps its last fill's end state in the network's fill
  arrays (:func:`fill_arrays`): the round log (bottleneck link, share key,
  the groups each round fixed and each updated link's residual and load
  before the round), each link's residual, load and listing, and each
  group's count, fixed flag and rate.  The compiled ``admit`` and
  ``retire`` put each group whose count they move on a list, once
  (``changes``, with the ``listed`` flags), and the next fill reads the
  changed counts from that list alone; a fill after a discarded log
  rewrites the whole snapshot instead.  The network passes its group-rate
  array as the fill arrays' ``group_rates``, so the fill writes its rates
  in place and a resumed fill does no work per group or link it does not
  recompute.  The next fill finds the first
  logged round a group whose count changed since can reach (its
  bottleneck is crossed by a changed group, or a listed link that a
  changed group crosses sorts below it), rolls the rounds from there back,
  adds each changed link's count delta to its load, and scans on from that
  round.  The rounds before it are the ones a scan would take (the
  induction is in DESIGN §8), so resuming changes no bit; the numpy
  kernels scan every round;
* per-link crossing counts accumulate in selected-group order (the order
  ``np.bincount`` adds its weights); groups with no flows add nothing
  and are skipped (their rate is never read); and ``residual - share *
  count`` stays two rounded operations, as ``-ffp-contract=off`` forbids
  fusing them into an FMA;
* the byte advance adds link bytes in ``(flow, link-in-path)`` order, as
  ``np.add.at`` does, and clamps like ``np.maximum(x, 0.0)``: NaN
  propagates and ``-0.0`` becomes ``+0.0``;
* ``settle`` takes the ETA minimum as numpy does: the first index wins a
  tie and the first NaN wins outright (every live row still takes its
  rate); the one-pass loops advance, test and rate each row in row order,
  which changes no operand of any row's floats and keeps the link bytes'
  addition order.  The finish threshold
  ``eps * size + eps`` stays two rounded operations, and its constants
  come in as arguments, so :mod:`repro.netsim.fluid` stays their one
  definition.

The compiled kernel reads the network's own arrays through the packs
the network caches, so a call converts a handful of numbers and
allocates no array.  Without a compiler or the Python headers the
extension does not build, and the numpy kernel runs together with the
event core's pure-python classes.
"""

from __future__ import annotations

import functools
from types import ModuleType, SimpleNamespace
from typing import Dict, Union

import numpy as np

from .. import _native

class NumpyKernel:
    """The fluid kernel in numpy: the reference the C loops reproduce.

    ``every_link`` fills over every registered link instead of only the
    loaded ones; the two fills are bit-identical (see :func:`_fill`).
    """

    def __init__(self, every_link: bool = False):
        self.every_link = every_link

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
        if self.every_link:
            links = np.arange(num_links, dtype=np.int64)
        else:
            links = np.flatnonzero(load_counts > 0)
        _fill(t.capacity, load_counts, t.group_paths[:num_groups],
              t.group_count[:num_groups], t.csr, t.starts, links, grates)


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
REFERENCE = NumpyKernel(every_link=True)


# A water-fill's arrays, as ``tables()`` takes them after the solve
# tables, with each array's length: so many slots, plus so many per link
# and per group of the tables it serves.
_FILL_FIELDS = (
    ("meta", np.int64, 4, 0, 0),
    ("log_links", np.int64, 0, 1, 0),
    ("log_keys", np.float64, 0, 1, 0),
    ("log_ends", np.int64, 0, 2, 0),
    ("snapshot", np.int64, 0, 0, 1),
    ("log_groups", np.int64, 0, 0, 1),
    ("group_rates", np.float64, 0, 0, 1),
    ("records", np.int64, 0, 0, 6),
    ("before", np.float64, 0, 0, 4),
    ("link_state", np.int64, 0, 8, 0),
    ("link_values", np.float64, 0, 4, 0),
    ("flags", np.uint8, 0, 1, 1),
    ("changes", np.int64, 1, 0, 1),
    ("listed", np.bool_, 0, 0, 1),
)


def fill_arrays(num_links: int, num_groups: int) -> Dict[str, np.ndarray]:
    """A water-fill's round log, end state and undo records for tables of
    ``num_links`` links and ``num_groups`` groups, with nothing logged
    yet.  ``meta`` holds the logged rounds, the snapshot's width, the
    rounds the last fill did not recompute and the links it left listed;
    zeroing its first slot discards the log.  ``changes`` counts, then
    lists, the groups whose count moved since the last fill (the flow
    ledger's ``admit`` and ``retire`` append to it, ``listed`` flags
    them), and ``group_rates`` is the fill's rate per group."""
    return {
        name: np.zeros(fixed + per_link * num_links + per_group * num_groups,
                       dtype)
        for name, dtype, fixed, per_link, per_group in _FILL_FIELDS
    }


# A kernel: the extension module itself, whose builtins are the entries,
# or a :class:`NumpyKernel`.
Kernel = Union[ModuleType, NumpyKernel]


@functools.lru_cache(maxsize=None)
def kernel() -> Kernel:
    """The extension module, whose builtins are the compiled kernel, or
    :data:`NUMPY` when the pure-python cores were asked for or the
    extension cannot be built; probed once per process."""
    ext = _native.extension()
    return NUMPY if ext is None else ext


def run(kernel: Kernel, num_links: int, num_groups: int, tables,
        grates: np.ndarray) -> None:
    """Water-fill with ``kernel`` into the rate array ``grates``: every
    populated group's rate, in ``grates[:num_groups]``.

    ``tables`` is ``kernel.tables(...)`` of the network's capacity,
    load-count, group-path, group-count and CSR (``csr`` payload,
    ``starts`` row starts) arrays and its fill arrays
    (:func:`fill_arrays`).
    """
    kernel.waterfill(num_links, num_groups, tables, grates)
