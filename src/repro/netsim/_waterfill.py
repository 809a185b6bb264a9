"""The fluid network's kernel: its numerics behind one interface.

:class:`~repro.netsim.fluid.FluidNetwork` owns the flow ledger (the
packed per-row arrays, the per-link bytes and loads, the per-group flow
counts) and the solve tables; a *kernel* does the arithmetic on them.
Two kernels share one interface, method for method:

* :class:`CompiledKernel`, C loops compiled at first use (plain ``cc -O2
  -ffp-contract=off``, no third-party build system) and bound through
  :mod:`ctypes`;
* :class:`NumpyKernel`, the same steps in numpy: the reference the C
  loops reproduce bit for bit.

Their methods:

* ``ledger(**arrays)`` packs the ledger's arrays into the handle the
  next four take; ``fill_state(**arrays)`` packs a water-fill's round
  log and work arrays (:func:`fill_arrays`); ``handle(array, dtype)``
  does the same for one solve table or rate array.  A handle is the
  address for C and the array itself for numpy.
* ``advance(ledger, n, dt)``, the per-flow byte accounting behind every
  rescale;
* ``admit(ledger, row, dt, l0, l1, size, gid)``, one arrival: the byte
  advance of the rows before ``row``, then the new row's path slots,
  remaining bytes, rate, size, group and live bit, and its group and
  link counts and the count hash;
* ``retire(ledger, n, dt, now, eps)``, one completion timer: the
  byte advance, the finished-row selection (one residue rule), and the
  tombstoning of those rows, which leave their counts and the hash;
* ``settle(ledger, n, dt, grates)``, one re-solve after the rates are
  known: the byte advance, the scatter of the group rates onto the live
  rows, and the earliest completion ETA;
* ``waterfill(num_links, num_groups, *tables, grates)``, the
  progressive-filling solve, whose rounds are inherently sequential (each
  fixes one bottleneck link and updates the links its flows cross).
  Callers go through :func:`run`, the one water-fill entry point.

The ledger's one-slot ``sig`` array is a running hash of the group
counts, ``sum(group_count[g] * mix(g)) mod 2**64`` (:func:`mix`):
``admit`` adds its group's weight and ``retire`` subtracts each retired
row's, so the network reads the hash of any population in O(1) and keys
its solve memo by it.

:func:`kernel` is the one place that picks between the two: the compiled
kernel, or :data:`NUMPY` when ``REPRO_WATERFILL=python`` is set or the
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
* the compiled fill keeps a log of its last fill's rounds (bottleneck
  link and share key) and group counts in the network's fill arrays, and
  takes a logged round without the scan while no group whose count
  changed since can reach it: its bottleneck is listed and crossed by no
  changed group, and no listed link that a changed group crosses sorts
  below it.  Such a round does exactly what the logged one did (the
  induction is in DESIGN §8), so replay changes no bit; the numpy
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
  tie and the first NaN wins outright.  The finish threshold
  ``eps * size + eps`` stays two rounded operations, and its constants
  come in as arguments, so :mod:`repro.netsim.fluid` stays their one
  definition.

The compiled kernel reads the network's own arrays through the addresses
the network caches, so a call converts a handful of numbers and
allocates nothing.
:mod:`repro._native` builds and caches the shared object.
"""

from __future__ import annotations

import ctypes
import functools
from types import SimpleNamespace
from typing import Dict, Tuple, Union

import numpy as np

from .. import _native

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

/* numpy argmin returns the first NaN: NaN sorts below every share. */
static double key_of(double residual, double load) {
    double share = residual / load;
    return isnan(share) ? -INFINITY : share;
}

/* Swap-remove position j from the live-link list of length *n. */
static void drop(int64_t j, int64_t *n, int64_t *live, double *keys,
                 double *residual, double *load, int64_t *slot) {
    int64_t last = --*n;
    slot[live[last]] = j;
    slot[live[j]] = -1;
    live[j] = live[last];
    keys[j] = keys[last];
    residual[j] = residual[last];
    load[j] = load[last];
}

/* The water-fill's round log and work arrays, owned by the network and
   packed by fill_state() in this order.  The work arrays are sized for the
   network's link and group tables, so a fill allocates nothing. */
typedef struct {
    int64_t *meta;                /* [3] logged rounds, snapshot width,
                                     rounds the last fill replayed */
    int64_t *log_links;           /* [links] each logged round's bottleneck */
    double *log_keys;             /* [links] its share key, before the clamp */
    int64_t *snapshot;            /* [groups] the logged fill's group counts */
    int64_t *iwork;               /* [links*4] */
    double *dwork;                /* [links*4] */
    unsigned char *flags;         /* [links+groups] */
} fill_t;

/* A link stays listed while an unfixed flow crosses it, so the list
   empties in the round where the python loops' unfixed-flow count
   reaches zero.

   Round replay: a link is changed when a group whose count differs from
   the logged fill's crosses it.  A logged round is taken without the
   argmin scan while its bottleneck is listed and unchanged and no listed
   changed link sorts below it by (key, link index); every round before
   the first that fails does exactly what the logged fill did, so the
   unchanged links' keys equal the logged fill's bit for bit (DESIGN §8).
   The caller zeroes meta[0] whenever the capacities change. */
void waterfill(
    int64_t nl, int64_t ng,
    const double *capacity,       /* [nl] */
    const int64_t *load_counts,   /* [nl] flows crossing each link */
    const int64_t *gpaths,        /* [ng*2] link ids per group, -1 = none */
    const int64_t *gcount,        /* [ng] flows per group */
    const int64_t *sorted_groups, /* CSR payload: groups sorted by link */
    const int64_t *starts,        /* [nl+1] CSR row starts */
    const fill_t *f,
    double *grates                /* [ng] out */
) {
    /* The list of loaded, unfixed links (ids, share keys, residuals,
       loads), link -> list position (-1 = absent), per-round crossing
       counts and touched links, the changed links (flags and list) and
       the fixed-group flags. */
    int64_t *live = f->iwork, *slot = live + nl, *touched = slot + nl;
    int64_t *changed = touched + nl;
    double *keys = f->dwork, *residual = keys + nl;
    double *load = residual + nl, *counts = load + nl;
    unsigned char *is_changed = f->flags, *gfixed = is_changed + nl;
    int64_t *meta = f->meta, *snapshot = f->snapshot;
    int64_t logged = meta[0], width = meta[1], nchanged = 0;
    /* Mark the links of the groups whose count differs from the
       snapshot (groups past it count as 0), and take the new snapshot.
       Most counts are unchanged: one memcmp clears a block of them. */
    memset(is_changed, 0, nl);
    for (int64_t lo = 0; lo < ng; lo += 64) {
        int64_t hi = lo + 64 < ng ? lo + 64 : ng;
        if (hi <= width && memcmp(gcount + lo, snapshot + lo,
                                  (hi - lo) * sizeof(int64_t)) == 0)
            continue;
        for (int64_t g = lo; g < hi; g++) {
            if (gcount[g] == (g < width ? snapshot[g] : 0)) continue;
            snapshot[g] = gcount[g];
            for (int64_t c = 0; c < 2; c++) {
                int64_t link = gpaths[2 * g + c];
                if (link >= 0 && !is_changed[link]) {
                    is_changed[link] = 1;
                    changed[nchanged++] = link;
                }
            }
        }
    }
    meta[1] = ng;
    memset(counts, 0, nl * sizeof(double));
    memset(gfixed, 0, ng);
    memset(grates, 0, ng * sizeof(double));
    int64_t n = 0;
    for (int64_t i = 0; i < nl; i++) {
        if (load_counts[i] > 0) {
            live[n] = i;
            residual[n] = capacity[i];
            load[n] = (double) load_counts[i];
            keys[n] = key_of(residual[n], load[n]);
            slot[i] = n++;
        } else {
            slot[i] = -1;
        }
    }
    int64_t round = 0, replayed = 0;
    while (n > 0) {
        double share = 0.0;
        int64_t bottleneck = -1;
        if (round < logged) {
            bottleneck = f->log_links[round];
            share = f->log_keys[round];
            if (is_changed[bottleneck] || slot[bottleneck] < 0)
                bottleneck = -1;
            for (int64_t c = 0; bottleneck >= 0 && c < nchanged; c++) {
                int64_t link = changed[c], j = slot[link];
                if (j >= 0 && keys[j] <= share
                    && (keys[j] < share || link < bottleneck))
                    bottleneck = -1;
            }
            if (bottleneck < 0) logged = 0;        /* scan from here on */
        }
        if (bottleneck >= 0) {
            replayed++;
        } else {
            /* argmin of (key, link index) */
            share = keys[0];
            bottleneck = live[0];
            for (int64_t j = 1; j < n; j++) {
                if (keys[j] <= share
                    && (keys[j] < share || live[j] < bottleneck)) {
                    share = keys[j];
                    bottleneck = live[j];
                }
            }
        }
        if (!isfinite(share)) break;
        double key = share;
        if (0.0 > share) share = 0.0;              /* == max(share, 0.0) */
        int64_t ntouched = 0;
        int any = 0;
        for (int64_t k = starts[bottleneck]; k < starts[bottleneck + 1];
             k++) {
            int64_t g = sorted_groups[k];
            if (gfixed[g] || gcount[g] == 0) continue;
            gfixed[g] = 1;
            grates[g] = share;
            any = 1;
            double w = (double) gcount[g];
            for (int64_t c = 0; c < 2; c++) {
                int64_t link = gpaths[2 * g + c];
                if (link < 0) continue;
                if (counts[link] == 0.0) touched[ntouched++] = link;
                counts[link] += w;
            }
        }
        if (!any) break;
        f->log_links[round] = bottleneck;
        f->log_keys[round] = key;
        round++;
        for (int64_t t = 0; t < ntouched; t++) {
            int64_t link = touched[t];
            double c = counts[link];
            counts[link] = 0.0;
            int64_t j = slot[link];
            /* The bottleneck leaves the list below.  j < 0 would mean a
               populated group crosses an unloaded link, i.e. counts that
               disagree with load_counts: skip rather than write astray. */
            if (link == bottleneck || j < 0) continue;
            /* Two rounded ops, exactly like numpy's
               "residual -= share * counts": no FMA (-ffp-contract=off). */
            double sub = share * c;
            residual[j] = residual[j] - sub;
            load[j] = load[j] - c;
            if (load[j] > 0.0) {
                keys[j] = key_of(residual[j], load[j]);
            } else {                               /* share is +inf now */
                drop(j, &n, live, keys, residual, load, slot);
            }
        }
        drop(slot[bottleneck], &n, live, keys, residual, load, slot);
    }
    meta[0] = round;
    meta[2] = replayed;
}

/* The network's flow ledger: the addresses of its arrays, packed by
   ledger() in this order. */
typedef struct {
    double *rates;                /* [rows] */
    double *remaining;            /* [rows] */
    int64_t *paths;               /* [rows*2] link ids per flow, -1 = none */
    double *link_bytes;           /* [links] */
    double *sizes;                /* [rows] */
    unsigned char *live;          /* [rows] numpy bool */
    int64_t *gids;                /* [rows] path group of each row */
    int64_t *group_count;         /* [groups] */
    int64_t *load_counts;         /* [links] */
    int64_t *retired;             /* [rows] out: retired rows, ascending */
    uint64_t *sig;                /* [1] sum of group_count[g] * mix(g) */
} ledger_t;

/* A group's weight in the ledger's count hash: splitmix64's output for
   state g (its finalizer of g plus the golden gamma, so no group weighs
   0).  Must equal the numpy mix(). */
static uint64_t mix(int64_t g) {
    uint64_t z = (uint64_t) g + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/* Internal calls go through this static helper, never through the
   exported advance(): inside a shared object that call binds through the
   PLT, where glibc's legacy <regexp.h> advance() wins and crashes. */
static void advance_rows(const ledger_t *t, int64_t n, double dt) {
    const double *rates = t->rates;
    double *remaining = t->remaining;
    int64_t first = 0;
    while (first < n && !(rates[first] * dt > 0.0)) first++;
    if (first == n) return;       /* nothing moved: leave every row as is */
    for (int64_t i = 0; i < n; i++) {
        double moved = rates[i] * dt;
        double left = remaining[i] - moved;
        remaining[i] = (left > 0.0 || isnan(left)) ? left : 0.0;
        if (moved > 0.0) {
            for (int64_t c = 0; c < 2; c++) {
                int64_t link = t->paths[2 * i + c];
                if (link >= 0) t->link_bytes[link] += moved;
            }
        }
    }
}

void advance(const ledger_t *t, int64_t n, double dt) {
    advance_rows(t, n, dt);
}

/* One arrival: advance rows [0, row) by dt (when positive), then write
   the flow's row -- its path (l1 = -1 for a one-link path), remaining =
   size, rate 0, size, group and live bit -- and count it in its group,
   in the count hash and on its links. */
void admit(const ledger_t *t, int64_t row, double dt, int64_t l0,
           int64_t l1, double size, int64_t gid) {
    if (dt > 0.0) advance_rows(t, row, dt);
    t->paths[2 * row] = l0;
    t->paths[2 * row + 1] = l1;
    t->remaining[row] = size;
    t->rates[row] = 0.0;
    t->sizes[row] = size;
    t->gids[row] = gid;
    t->live[row] = 1;
    t->group_count[gid] += 1;
    *t->sig += mix(gid);
    t->load_counts[l0] += 1;
    if (l1 >= 0) t->load_counts[l1] += 1;
}

/* One completion timer: advance by dt (when positive), then retire the
   done live rows: remaining <= eps*size + eps, or a moving row whose
   own ETA is below the clock's resolution (now + eta <= now).  Retired
   rows are tombstoned, uncounted (group, count hash, links) and written
   to t->retired in ascending order; returns their count. */
int64_t retire(const ledger_t *t, int64_t n, double dt, double now,
               double eps) {
    if (dt > 0.0) advance_rows(t, n, dt);
    const double *rates = t->rates, *remaining = t->remaining;
    const double *sizes = t->sizes;
    int64_t *out = t->retired, k = 0;
    for (int64_t i = 0; i < n; i++) {
        if (t->live[i] && (remaining[i] <= eps * sizes[i] + eps
                           || (rates[i] > 0.0 && now + remaining[i] / rates[i] <= now)))
            out[k++] = i;
    }
    for (int64_t j = 0; j < k; j++) {
        int64_t i = out[j];
        t->rates[i] = 0.0;
        t->live[i] = 0;
        t->group_count[t->gids[i]] -= 1;
        *t->sig -= mix(t->gids[i]);
        for (int64_t c = 0; c < 2; c++) {
            int64_t link = t->paths[2 * i + c];
            if (link >= 0) t->load_counts[link] -= 1;
        }
    }
    return k;
}

/* One re-solve: advance by dt (when positive), give every live row its
   group's rate from grates, and return the minimum ETA over the moving
   rows -- NaN if any is NaN (numpy's min), -1 if no row moves. */
double settle(const ledger_t *t, int64_t n, double dt, const double *grates) {
    if (dt > 0.0) advance_rows(t, n, dt);
    double *rates = t->rates;
    const double *remaining = t->remaining;
    for (int64_t i = 0; i < n; i++) {
        if (t->live[i]) rates[i] = grates[t->gids[i]];
    }
    double best = -1.0;
    for (int64_t i = 0; i < n; i++) {
        if (!(rates[i] > 0.0)) continue;
        double e = remaining[i] / rates[i];
        if (isnan(e)) return e;
        if (best < 0.0 || e < best) best = e;
    }
    return best;
}
"""


class NumpyKernel:
    """The fluid kernel in numpy: the reference the C loops reproduce.

    ``every_link`` fills over every registered link instead of only the
    loaded ones; the two fills are bit-identical (see :func:`_fill`).
    """

    def __init__(self, every_link: bool = False):
        self.every_link = every_link

    @staticmethod
    def ledger(**arrays: np.ndarray) -> SimpleNamespace:
        """The flow ledger's arrays, by name."""
        return SimpleNamespace(**arrays)

    @staticmethod
    def handle(array: np.ndarray, dtype) -> np.ndarray:
        return array

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
        its group, in the count hash and on its links."""
        if dt > 0:
            self.advance(t, row, dt)
        t.paths[row] = (l0, l1)
        t.remaining[row] = size
        t.rates[row] = 0.0
        t.sizes[row] = size
        t.gids[row] = gid
        t.live[row] = True
        t.group_count[gid] += 1
        t.sig += mix(t.gids[row:row + 1])
        t.load_counts[l0] += 1
        if l1 >= 0:
            t.load_counts[l1] += 1

    def retire(self, t: SimpleNamespace, n: int, dt: float, now: float,
               eps: float) -> int:
        """One completion timer: advance by ``dt``, then tombstone and
        uncount (group, ``sig``, links) the rows that are done and write
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
        gids = t.gids[rows]
        np.subtract.at(t.group_count, gids, 1)
        t.sig -= mix(gids).sum(dtype=np.uint64)
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
        # completion timer), and its group may be empty — i.e. beyond the
        # cached array's trim width — so it must not index grates.
        rates[live] = grates[t.gids[:n][live]]
        moving = rates > 0
        if not moving.any():
            return -1.0
        return float((t.remaining[:n][moving] / rates[moving]).min())

    fill_state = ledger

    def waterfill(self, num_links: int, num_groups: int, capacity,
                  load_counts, group_paths, group_count, csr, starts,
                  fill, grates: np.ndarray) -> None:
        """Every round scans for its bottleneck: the numpy kernels keep
        no round log, so ``fill`` goes unread."""
        load_counts = load_counts[:num_links]
        if self.every_link:
            links = np.arange(num_links, dtype=np.int64)
        else:
            links = np.flatnonzero(load_counts > 0)
        _fill(capacity, load_counts, group_paths[:num_groups],
              group_count[:num_groups], csr, starts, links, grates)


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


def mix(gids: np.ndarray) -> np.ndarray:
    """Each group's weight in the ledger's count hash ``sig``: the C
    ``mix``, splitmix64's output for state ``gid``, in ``np.uint64``
    arithmetic (which wraps mod 2**64, as C does)."""
    z = gids.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


NUMPY = NumpyKernel()
REFERENCE = NumpyKernel(every_link=True)


def address(array: np.ndarray, dtype) -> int:
    """Base address of a writable, C-contiguous, non-empty ``dtype`` array.

    ``ctypes.c_char.from_buffer`` refuses read-only and non-contiguous
    buffers and costs a quarter of ``ndarray.ctypes.data``.  The caller
    keeps ``array`` alive for as long as it passes the address.
    """
    if array.dtype != dtype:
        raise TypeError(f"expected a {np.dtype(dtype)} array, got {array.dtype}")
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


# The field order of the C ``ledger_t``.
_LEDGER_FIELDS = (
    ("rates", np.float64),
    ("remaining", np.float64),
    ("paths", np.int64),
    ("link_bytes", np.float64),
    ("sizes", np.float64),
    ("live", np.bool_),
    ("gids", np.int64),
    ("group_count", np.int64),
    ("load_counts", np.int64),
    ("retired", np.int64),
    ("sig", np.uint64),
)


# The field order of the C ``fill_t``, with each array's length: so many
# slots, plus so many per link and per group of the tables it serves.
_FILL_FIELDS = (
    ("meta", np.int64, 3, 0, 0),
    ("log_links", np.int64, 0, 1, 0),
    ("log_keys", np.float64, 0, 1, 0),
    ("snapshot", np.int64, 0, 0, 1),
    ("iwork", np.int64, 0, 4, 0),
    ("dwork", np.float64, 0, 4, 0),
    ("flags", np.uint8, 0, 1, 1),
)


def fill_arrays(num_links: int, num_groups: int) -> Dict[str, np.ndarray]:
    """A water-fill's round log, group-count snapshot and work arrays for
    tables of ``num_links`` links and ``num_groups`` groups, with nothing
    logged yet.  ``meta`` holds the logged rounds, the snapshot's width
    and the rounds the last fill replayed; zeroing its first slot
    discards the log."""
    return {
        name: np.zeros(fixed + per_link * num_links + per_group * num_groups,
                       dtype)
        for name, dtype, fixed, per_link, per_group in _FILL_FIELDS
    }


class CompiledKernel:
    """The fluid kernel as C loops (``_C_SOURCE``).

    ``advance``, ``admit``, ``retire``, ``settle`` and ``waterfill`` are
    the ctypes functions themselves, so a call costs no Python frame of
    its own; ``settle`` and ``waterfill`` take the rate array's address
    (:meth:`handle`).
    """

    handle = staticmethod(address)

    def __init__(self, lib: ctypes.CDLL):
        self.waterfill = lib.waterfill
        self.advance = lib.advance
        self.admit = lib.admit
        self.retire = lib.retire
        self.settle = lib.settle

    @staticmethod
    def ledger(**arrays: np.ndarray) -> ctypes.Array:
        """Pack the addresses of the flow ledger's arrays into the C
        ``ledger_t``.

        The caller keeps every array alive, and builds a new ledger
        whenever one of them is reallocated.
        """
        return (ctypes.c_void_p * len(_LEDGER_FIELDS))(*(
            address(arrays[name], dtype) for name, dtype in _LEDGER_FIELDS
        ))

    @staticmethod
    def fill_state(**arrays: np.ndarray) -> ctypes.Array:
        """Pack the addresses of a water-fill's arrays (:func:`fill_arrays`)
        into the C ``fill_t``; the caller keeps them alive."""
        return (ctypes.c_void_p * len(_FILL_FIELDS))(*(
            address(arrays[name], dtype) for name, dtype, *_ in _FILL_FIELDS
        ))


def _bind(path) -> CompiledKernel:
    lib = ctypes.CDLL(str(path))
    pointer, int64, double = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.waterfill.restype = None
    lib.waterfill.argtypes = [int64, int64] + [pointer] * 8
    lib.advance.restype = None
    lib.advance.argtypes = [pointer, int64, double]
    lib.admit.restype = None
    lib.admit.argtypes = [pointer, int64, double, int64, int64, double, int64]
    lib.retire.restype = int64
    lib.retire.argtypes = [pointer, int64, double, double, double]
    lib.settle.restype = double
    lib.settle.argtypes = [pointer, int64, double, pointer]
    return CompiledKernel(lib)


_FLAGS = ("-ffp-contract=off", "-lm")

Kernel = Union[CompiledKernel, NumpyKernel]


@functools.lru_cache(maxsize=None)
def kernel() -> Kernel:
    """The compiled kernel, or :data:`NUMPY` when it is opted out of or
    cannot be built; probed once per process."""
    return _native.load(
        "waterfill", _C_SOURCE, _FLAGS, _bind, "fluid-network kernel"
    ) or NUMPY


def run(kernel: Kernel, num_links: int, num_groups: int,
        tables: Tuple, grates) -> None:
    """Water-fill with ``kernel`` into the rate array whose handle is
    ``grates``: every populated group's rate, in ``grates[:num_groups]``.

    ``tables`` holds the handles of the network's capacity, load-count,
    group-path, group-count and CSR (payload, row starts) arrays and its
    fill state (``kernel.fill_state(**fill_arrays(...))``), in that order.
    """
    kernel.waterfill(num_links, num_groups, *tables, grates)
