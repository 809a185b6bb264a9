"""Compiled fluid-network core (optional, bit-identical).

The inner loops of :mod:`repro.netsim.fluid` are compiled at first use
(plain ``cc -O2 -ffp-contract=off``, no third-party build system) and
bound through :mod:`ctypes`:

* ``waterfill``, the progressive-filling solve, whose rounds are
  inherently sequential (each fixes one bottleneck link and updates the
  links its flows cross);
* ``advance``, the per-flow byte accounting behind every arrival and
  rescale;
* ``retire``, one completion timer: the byte advance, the finished-row
  selection with its residue rules, and the tombstoning of those rows;
* ``settle``, one re-solve after the rates are known: the byte advance,
  the scatter of the group rates onto the live rows, and the earliest
  completion ETA.

So a fluid instant costs one C call instead of a score of small numpy
calls, whose per-call overhead, not their arithmetic, was the cost.

Bit-identity with the pure-python loops is a hard requirement (the
golden tests and ``baseline --tolerance 0`` pin simulated times exactly),
so the C code reproduces the float semantics operation for operation:

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
* per-link crossing counts accumulate in selected-group order (the order
  ``np.bincount`` adds its weights); groups with no flows add nothing
  and are skipped (their rate is never read); and ``residual - share *
  count`` stays two rounded operations, as ``-ffp-contract=off`` forbids
  fusing them into an FMA;
* the byte advance adds link bytes in ``(flow, link-in-path)`` order, as
  ``np.add.at`` does, and clamps like ``np.maximum(x, 0.0)``: NaN
  propagates and ``-0.0`` becomes ``+0.0``;
* ``retire`` and ``settle`` take the ETA minimum as numpy does: the first
  index wins a tie and the first NaN wins outright.  The finish threshold
  ``eps * size + eps`` stays two rounded operations, and its constants
  come in as arguments, so the python module stays their one definition.

The kernels read the network's own arrays through addresses the network
caches (:func:`address`, :func:`ledger`), so a call converts a handful
of numbers.  :mod:`repro._native` builds and caches the shared object; if
no C compiler is available, the callers run the pure-python loops and one
:class:`RuntimeWarning` says why; ``REPRO_WATERFILL=python`` opts out
silently.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Optional, Tuple

import numpy as np

from .. import _native

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
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

/* Returns 0, or -1 when out of memory.  A link stays listed while an
   unfixed flow crosses it, so the list empties in the round where the
   python loops' unfixed-flow count reaches zero. */
int64_t waterfill(
    int64_t nl, int64_t ng,
    const double *capacity,       /* [nl] */
    const int64_t *load_counts,   /* [nl] flows crossing each link */
    const int64_t *gpaths,        /* [ng*2] link ids per group, -1 = none */
    const int64_t *gcount,        /* [ng] flows per group */
    const int64_t *sorted_groups, /* CSR payload: groups sorted by link */
    const int64_t *starts,        /* [nl+1] CSR row starts */
    double *grates                /* [ng] out */
) {
    /* The list of loaded, unfixed links (ids, share keys, residuals,
       loads), link -> list position (-1 = absent), per-round crossing
       counts and touched links, and the fixed-group flags. */
    char *block = malloc(nl * 7 * sizeof(int64_t) + ng);
    if (block == NULL) return -1;
    int64_t *live = (int64_t *) block, *slot = live + nl, *touched = slot + nl;
    double *keys = (double *) (touched + nl), *residual = keys + nl;
    double *load = residual + nl, *counts = load + nl;
    unsigned char *gfixed = (unsigned char *) (counts + nl);
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
    while (n > 0) {
        /* argmin of (key, link index) */
        double share = keys[0];
        int64_t bottleneck = live[0];
        for (int64_t j = 1; j < n; j++) {
            if (keys[j] <= share
                && (keys[j] < share || live[j] < bottleneck)) {
                share = keys[j];
                bottleneck = live[j];
            }
        }
        if (!isfinite(share)) break;
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
    free(block);
    return 0;
}

/* The network's flow ledger: the addresses of its arrays, packed by
   ledger() in this order. */
typedef struct {
    double *rates;                /* [rows] */
    double *remaining;            /* [rows] */
    const int64_t *paths;         /* [rows*2] link ids per flow, -1 = none */
    double *link_bytes;           /* [links] */
    const double *sizes;          /* [rows] */
    unsigned char *live;          /* [rows] numpy bool */
    const int64_t *gids;          /* [rows] path group of each row */
    int64_t *group_count;         /* [groups] */
    int64_t *load_counts;         /* [links] */
    int64_t *retired;             /* [rows] out: retired rows, ascending */
} ledger_t;

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

/* One completion timer: advance by dt (when positive), then retire the
   finished live rows -- remaining <= eps*size + eps -- or, when none
   qualifies, the residue the timer was armed for.  Residue is the moving
   rows' minimum ETA (first-index argmin, first NaN wins, as numpy's
   argmin/min): if it is below the clock's resolution (now + eta <= now)
   the whole sub-ulp cohort retires, else the argmin row retires only
   within the relative band rel*size + eps.  Retired rows are tombstoned
   and written to t->retired in ascending order; returns their count. */
int64_t retire(const ledger_t *t, int64_t n, double dt, double now,
               double eps, double rel) {
    if (dt > 0.0) advance_rows(t, n, dt);
    const double *rates = t->rates, *remaining = t->remaining;
    const double *sizes = t->sizes;
    int64_t *out = t->retired, k = 0;
    for (int64_t i = 0; i < n; i++) {
        if (t->live[i] && remaining[i] <= eps * sizes[i] + eps) out[k++] = i;
    }
    if (k == 0) {
        int64_t candidate = -1;
        double eta = 0.0;
        for (int64_t i = 0; i < n; i++) {
            if (!(rates[i] > 0.0)) continue;
            double e = remaining[i] / rates[i];
            if (candidate < 0 || e < eta || (isnan(e) && !isnan(eta))) {
                candidate = i;
                eta = e;
            }
        }
        if (candidate < 0) return 0;
        if (now + eta <= now) {
            for (int64_t i = 0; i < n; i++) {
                if (rates[i] > 0.0 && now + remaining[i] / rates[i] <= now)
                    out[k++] = i;
            }
        } else if (remaining[candidate] <= rel * sizes[candidate] + eps) {
            out[k++] = candidate;
        }
    }
    for (int64_t j = 0; j < k; j++) {
        int64_t i = out[j];
        t->rates[i] = 0.0;
        t->live[i] = 0;
        t->group_count[t->gids[i]] -= 1;
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

def _bind(path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    pointer, int64, double = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.waterfill.restype = int64
    lib.waterfill.argtypes = [int64, int64] + [pointer] * 7
    lib.advance.restype = None
    lib.advance.argtypes = [pointer, int64, double]
    lib.retire.restype = int64
    lib.retire.argtypes = [pointer, int64, double, double, double, double]
    lib.settle.restype = double
    lib.settle.argtypes = [pointer, int64, double, pointer]
    return lib


_FLAGS = ("-ffp-contract=off", "-lm")


@functools.lru_cache(maxsize=None)
def kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernels, or None (no compiler / opted out); probed
    once per process."""
    return _native.load("waterfill", _C_SOURCE, _FLAGS, _bind, "fluid-network kernel")


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
)


def ledger(**arrays: np.ndarray) -> ctypes.Array:
    """Pack the addresses of the flow ledger's arrays into the C
    ``ledger_t`` that ``advance``, ``retire`` and ``settle`` take.

    The caller keeps every array alive, and builds a new ledger whenever
    one of them is reallocated.
    """
    return (ctypes.c_void_p * len(_LEDGER_FIELDS))(*(
        address(arrays[name], dtype) for name, dtype in _LEDGER_FIELDS
    ))


def run(lib: ctypes.CDLL, num_links: int, num_groups: int,
        tables: Tuple[int, ...], grates: np.ndarray) -> None:
    """Invoke the compiled filling loop; overwrites ``grates[:num_groups]``.

    ``tables`` holds the addresses of the network's capacity, load-count,
    group-path, group-count and CSR (payload, row starts) arrays, in that
    order.
    """
    if lib.waterfill(num_links, num_groups, *tables, address(grates, np.float64)):
        raise MemoryError("no memory for the water-fill's work buffers")
