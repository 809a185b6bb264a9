"""Compiled event kernel (optional, same event order as ``core.py``).

The per-event hot path of :mod:`repro.simkit.core` as C in the
simulator's one extension module (``repro/_native.c``): ``Event`` (trigger, callback dispatch and accessors),
``Timeout``, ``Process`` (its resume loop), ``Condition``/``AllOf``/
``AnyOf`` and an ``Environment`` base type (schedule, pop, ``step``, the
``run`` loop, the instant-end hook flush, ``peek``, ``timeout`` and
``event``); and every wait primitive of :mod:`repro.simkit.resources`:
``Resource``/``Request``, ``PriorityResource``/``PriorityRequest``,
``Store`` with ``StorePut``/``StoreGet`` and ``Container`` with
``ContainerPut``/``ContainerGet``.  One simulated event used to cost
about five Python frames (``step`` → ``_process_callbacks`` →
``Process._resume``, plus ``_schedule`` and ``succeed``); now it costs
the generator's own frame, and a request, put or get adds no frame.

The pure-python classes in ``core.py`` stay the reference, and the
compiled kernel reproduces their event order exactly, because every
golden pins it:

* The queue is a flat binary heap keyed by ``(time, priority, eid)``
  plus a FIFO ring for zero-delay, priority-1 schedules (every
  ``succeed``/``fail`` and delay-0 timeout).  Eids are handed out at
  schedule time, so the ring is in eid order and all of it is due at
  ``now``.  A heap head wins over the ring head only when it is due at
  ``now`` and ``(priority, eid) < (1, ring eid)``: exactly ``step()``'s
  merge rule over the reference's bucket heap and deque, which is the
  ``(time, priority, eid)`` order of one flat heap.
* A timeout's due time is ``now + delay``, one double add.
* A process waiting on an event registers itself (not a bound method)
  as the callback, and the dispatch resumes it without a call through
  Python.  A condition registers itself the same way, and the dispatch
  counts it in C; constituents already processed are checked at
  construction, in list order, and the first failure is defused and
  propagated.  A process holds no reference to the event it waits on,
  and the kernel tracks no running process: nothing preempts a process,
  so the resume loop writes no per-wait state.  ``callbacks`` stays a
  real list that Python code may append to, and reads ``None`` once the
  event is processed.
* The wait primitives create and schedule the same events in the same
  order as the reference: a ``Resource`` grants in FIFO order; a
  ``PriorityResource`` keeps its waiters in a binary heap keyed by
  ``(priority, request time, global seq)``, whose head is the request
  the reference's stable sort puts first (the keys are distinct); the
  ``Store`` and ``Container`` trigger loops serve a put before a get in
  each pass.  ``users`` and ``items`` are real lists, and a container's
  ``level`` and ``min_level`` move by the reference's own number
  arithmetic (an int container stays int).
* Real generators resume through ``PyIter_Send`` (Python >= 3.10); any
  other iterator with ``send``/``throw`` methods, such as a tracing
  proxy, is resumed through those methods.
* Every type implements ``tp_traverse``/``tp_clear``: events, processes,
  resources and the environment form reference cycles.  ``Timeout``,
  ``AllOf``, ``AnyOf``, ``PriorityRequest``, ``PriorityResource`` and
  ``StoreGet`` add no object fields, so they leave
  ``Py_TPFLAGS_HAVE_GC`` unset and inherit their base's GC support (a
  static subtype that sets the flag without its own traverse fails
  ``PyType_Ready``).

What stays in Python (``core.py``): the ``Environment`` subclass whose
own ``run``, ``process`` and ``defer_to_instant_end`` external tracers
patch.  ``core.py`` and ``resources.py`` bind the C types under the
reference names once the kernel is chosen.
:mod:`repro._native` builds, caches and imports the extension, which
also holds the fluid network's kernel (:mod:`repro.netsim._waterfill`).
Without a compiler or the Python headers, ``core.py`` keeps its
pure-python classes and the fluid network its numpy kernel, and one
``RuntimeWarning`` says why; ``REPRO_WATERFILL=python`` selects both
silently.
"""

from __future__ import annotations

from types import ModuleType
from typing import Optional

from .. import _native


def kernel() -> Optional[ModuleType]:
    """The extension module whose event, condition and resource types and
    ``Environment`` base replace the reference classes, or None (no
    compiler, or opted out)."""
    return _native.extension()
