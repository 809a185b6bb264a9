"""The fluid network's kernel: its numerics behind one interface.

:class:`~repro.netsim.fluid.FluidNetwork` owns the flow ledger (the
packed per-row arrays, the per-link bytes and loads, the per-group flow
counts) and the solve tables; the *kernel* does the arithmetic on them.
It is C loops in the simulator's one extension module
(``repro/_native.c``, built by :mod:`repro._native` with plain
``cc -O2 -ffp-contract=off``, no third-party build system), and the
kernel is the extension module itself, whose entries are
``METH_FASTCALL`` builtins.  The same arithmetic in numpy, the reference
the C loops reproduce bit for bit, is the tests' (``tests/reference/``,
which has the extension's interface name for name).

Its entries:

* ``ledger(**arrays)`` packs the ledger's arrays into the object the
  next four take; ``tables(**arrays)`` packs the solve tables and a
  water-fill's round log, end state and work arrays (:func:`fill_arrays`)
  into the one ``waterfill`` takes.  The pack holds a buffer view of every
  array, which checks its dtype, C-contiguity and writability and keeps
  it alive.  Rate arrays are passed as they are.
* ``advance(ledger, n, dt)``, the per-flow byte accounting behind every
  rescale;
* ``admit(ledger, row, dt, l0, l1, size, gid)``, one arrival: the byte
  advance of the rows before ``row``, then the new row's path slots,
  remaining bytes, rate, size, group and live bit, and its group and
  link counts;
* ``retire(ledger, n, dt, now, eps)``, one completion timer: the
  byte advance, the finished-row selection (one residue rule), and the
  tombstoning of those rows, which leave their counts; one pass over
  the rows does all three, row by row;
* ``settle(ledger, n, dt, grates)``, one re-solve after the rates are
  known: the byte advance, the scatter of the group rates onto the live
  rows, and the earliest completion ETA; also one pass;
* ``waterfill(num_links, num_groups, tables, grates)``, the
  progressive-filling solve, whose rounds are inherently sequential (each
  fixes one bottleneck link and updates the links its flows cross).
  Callers go through :func:`run`, the one water-fill entry point;
* ``stage(net, flow_type, paths, path_indices, sizes, latencies,
  tags)``, ``activate(net, flow)``, ``fire(net, event)`` and
  ``recompute(net)``, the network's bookkeeping around those calls,
  which the network binds to itself with the kernel: a batch of flows
  made and started in order (each as ``FluidNetwork.transfer``, its
  one-flow case, starts one, after the whole batch is checked), a
  flow's activation, one completion timer
  (the ``retire`` call, the flows' tombstones and ``done`` events, the
  deferred re-solve) and the re-solve at the end of an instant (the fill
  through :func:`run`, ``settle`` and the next completion timer).  They
  are C over the network's state, which look :func:`run` up on this
  module at each re-solve, so a wrapper of it sees every fill, and
  ``stage`` looks up the network's ``_activate_event`` once per batch
  for the latency timers it arms.  They take the extension's ``Flow``
  (the base of :class:`~repro.netsim.fluid.Flow`) and read and write
  its fields directly.

A fluid instant costs one C call instead of a score of small numpy
calls, whose per-call overhead, not their arithmetic, was the cost.
Bit-identity with the numpy reference is a hard requirement (the golden
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

The kernel reads the network's own arrays through the packs the network
caches, so a call converts a handful of numbers and allocates no array.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


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


def run(kernel, num_links: int, num_groups: int, tables,
        grates: np.ndarray) -> None:
    """Water-fill with ``kernel`` into the rate array ``grates``: every
    populated group's rate, in ``grates[:num_groups]``.

    ``tables`` is ``kernel.tables(...)`` of the network's capacity,
    load-count, group-path, group-count and CSR (``csr`` payload,
    ``starts`` row starts) arrays and its fill arrays
    (:func:`fill_arrays`).
    """
    kernel.waterfill(num_links, num_groups, tables, grates)
