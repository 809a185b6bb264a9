"""Compiled event kernel (optional, same event order as ``core.py``).

The per-event hot path of :mod:`repro.simkit.core` as a CPython
extension: ``Event`` (trigger, callback dispatch and accessors),
``Timeout``, ``Process`` (its resume loop) and an ``Environment`` base
type (schedule, pop, ``step``, the ``run`` loop, the instant-end hook
flush, ``peek``, ``timeout`` and ``event``).  One simulated event used to
cost about five Python frames (``step`` → ``_process_callbacks`` →
``Process._resume``, plus ``_schedule`` and ``succeed``); now it costs
the generator's own frame.

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
  Python.  A process holds no reference to the event it waits on, and
  the kernel tracks no running process: nothing preempts a process, so
  the resume loop writes no per-wait state.  ``callbacks`` stays a real
  list that Python code may append to, and reads ``None`` once the event
  is processed.
* Real generators resume through ``PyIter_Send`` (Python >= 3.10); any
  other iterator with ``send``/``throw`` methods, such as a tracing
  proxy, is resumed through those methods.
* Every type implements ``tp_traverse``/``tp_clear``: events, processes
  and the environment form reference cycles.  ``Timeout`` adds no
  fields, so it leaves ``Py_TPFLAGS_HAVE_GC`` unset and inherits the
  GC support of ``Event`` (a static subtype that sets the flag without
  its own traverse fails ``PyType_Ready``).

What stays in Python (``core.py``): the ``Environment`` subclass whose
own ``run``, ``process`` and ``defer_to_instant_end`` external tracers
patch, ``Condition``/``AllOf``/``AnyOf``, and the resources.
:mod:`repro._native` builds and caches the extension; without a compiler
``core.py`` keeps its pure-python classes and one ``RuntimeWarning``
says why, and ``REPRO_WATERFILL=python`` selects them silently.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sysconfig
from types import ModuleType
from typing import Optional

from .. import _native

_C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* Bound by setup(): the exception class the kernel raises and the
   "not yet triggered" sentinel of core.py. */
static PyObject *SimulationError, *Pending;
static PyObject *str_send, *str_throw, *str_name, *str_now, *str_value;

typedef struct {
    PyObject_HEAD
    PyObject *env;
    PyObject *callbacks;  /* a list, or None once processed */
    PyObject *value;      /* Pending until triggered */
    PyObject *exception;  /* NULL or None unless failed */
    char defused;
} EventObject;

typedef struct {
    EventObject event;
    PyObject *generator;
    PyObject *name;
    char daemon;
} ProcessObject;

typedef struct {
    double time;
    long priority;
    unsigned long long eid;
    PyObject *event;
} Entry;

typedef struct {
    unsigned long long eid;
    PyObject *event;
} Slot;

typedef struct {
    PyObject_HEAD
    double now;
    Entry *heap;
    Py_ssize_t heap_len, heap_cap;
    Slot *ring;           /* capacity is a power of two */
    Py_ssize_t ring_head, ring_len, ring_cap;
    unsigned long long eid;
    PyObject *hooks;      /* instant-end callbacks (a list) */
    PyObject *alive;      /* set of started, unfinished processes */
    long long events_processed, processes_started;
} EnvObject;

static PyTypeObject EventType, TimeoutType, ProcessType, EnvType;

#define HAS_EXC(e) ((e)->exception != NULL && (e)->exception != Py_None)
#define TRIGGERED(e) ((e)->value != Pending || HAS_EXC(e))
#define HOOKS_PENDING(env) ((env)->hooks != NULL && PyList_GET_SIZE((env)->hooks) > 0)
#define DRAINED(env) ((env)->ring_len == 0 && \
    ((env)->heap_len == 0 || (env)->heap[0].time > (env)->now))

static int process_resume(ProcessObject *self, EventObject *event);

/* -- queue ------------------------------------------------------------ */

static inline int entry_less(const Entry *a, const Entry *b) {
    if (a->time != b->time) return a->time < b->time;
    if (a->priority != b->priority) return a->priority < b->priority;
    return a->eid < b->eid;
}

static int heap_push(EnvObject *env, double time, long priority, PyObject *event) {
    if (env->heap_len == env->heap_cap) {
        Py_ssize_t cap = env->heap_cap ? 2 * env->heap_cap : 64;
        Entry *heap = PyMem_Realloc(env->heap, cap * sizeof(Entry));
        if (heap == NULL) { PyErr_NoMemory(); return -1; }
        env->heap = heap;
        env->heap_cap = cap;
    }
    Entry item = {time, priority, env->eid, event};
    Entry *heap = env->heap;
    Py_ssize_t i = env->heap_len++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!entry_less(&item, &heap[parent])) break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = item;
    return 0;
}

/* Removes the head; returns its event (the reference moves to the caller). */
static PyObject *heap_pop(EnvObject *env) {
    Entry *heap = env->heap;
    PyObject *event = heap[0].event;
    Py_ssize_t n = --env->heap_len;
    if (n > 0) {
        Entry last = heap[n];
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= n) break;
            if (child + 1 < n && entry_less(&heap[child + 1], &heap[child])) child++;
            if (!entry_less(&heap[child], &last)) break;
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = last;
    }
    return event;
}

static int ring_push(EnvObject *env, PyObject *event) {
    if (env->ring_len == env->ring_cap) {
        Py_ssize_t cap = env->ring_cap ? 2 * env->ring_cap : 64;
        Slot *ring = PyMem_Malloc(cap * sizeof(Slot));
        if (ring == NULL) { PyErr_NoMemory(); return -1; }
        for (Py_ssize_t i = 0; i < env->ring_len; i++)
            ring[i] = env->ring[(env->ring_head + i) & (env->ring_cap - 1)];
        PyMem_Free(env->ring);
        env->ring = ring;
        env->ring_cap = cap;
        env->ring_head = 0;
    }
    Slot *slot = &env->ring[(env->ring_head + env->ring_len) & (env->ring_cap - 1)];
    slot->eid = env->eid;
    slot->event = event;
    env->ring_len++;
    return 0;
}

static PyObject *ring_pop(EnvObject *env) {
    PyObject *event = env->ring[env->ring_head].event;
    env->ring_head = (env->ring_head + 1) & (env->ring_cap - 1);
    env->ring_len--;
    return event;
}

static int schedule(PyObject *envobj, EventObject *event, double delay, long priority) {
    if (envobj == NULL || !PyObject_TypeCheck(envobj, &EnvType)) {
        PyErr_Format(PyExc_TypeError,
                     "event belongs to %R, not to a compiled-kernel environment",
                     envobj ? envobj : Py_None);
        return -1;
    }
    EnvObject *env = (EnvObject *) envobj;
    env->eid++;
    int status = (delay == 0.0 && priority == 1)
        ? ring_push(env, (PyObject *) event)
        : heap_push(env, env->now + delay, priority, (PyObject *) event);
    if (status == 0) Py_INCREF(event);
    return status;
}

/* -- Event ------------------------------------------------------------ */

/* Parses a vectorcall's arguments, each by position or keyword, into
   out[0..count) (NULL when absent); the first `required` are mandatory. */
static int parse_args(const char *function, const char *const *names, Py_ssize_t count,
                      Py_ssize_t required, PyObject *const *args, Py_ssize_t nargs,
                      PyObject *kwnames, PyObject **out) {
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    for (Py_ssize_t i = 0; i < count; i++) out[i] = i < nargs ? args[i] : NULL;
    if (nargs > count) goto usage;
    for (Py_ssize_t k = 0; k < nkw; k++) {
        Py_ssize_t i = 0;
        while (i < count && PyUnicode_CompareWithASCIIString(
                PyTuple_GET_ITEM(kwnames, k), names[i]) != 0) i++;
        if (i == count || out[i] != NULL) goto usage;
        out[i] = args[nargs + k];
    }
    for (Py_ssize_t i = 0; i < required; i++) if (out[i] == NULL) goto usage;
    return 0;
usage:
    PyErr_Format(PyExc_TypeError, "invalid arguments to %s()", function);
    return -1;
}

static EventObject *event_alloc(PyTypeObject *type, PyObject *env) {
    EventObject *self = (EventObject *) type->tp_alloc(type, 0);
    if (self == NULL) return NULL;
    self->callbacks = PyList_New(0);
    if (self->callbacks == NULL) { Py_DECREF(self); return NULL; }
    Py_XINCREF(env);
    self->env = env;
    Py_INCREF(Pending);
    self->value = Pending;
    return self;
}

static PyObject *event_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    return (PyObject *) event_alloc(type, NULL);
}

static int event_init(EventObject *self, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"env", NULL};
    PyObject *env;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:Event", kwlist, &env)) return -1;
    Py_INCREF(env);
    Py_XSETREF(self->env, env);
    return 0;
}

static int event_traverse(EventObject *self, visitproc visit, void *arg) {
    Py_VISIT(self->env);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    Py_VISIT(self->exception);
    return 0;
}

static int event_clear(EventObject *self) {
    Py_CLEAR(self->env);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    Py_CLEAR(self->exception);
    return 0;
}

static void event_dealloc(EventObject *self) {
    PyObject_GC_UnTrack(self);
    event_clear(self);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

/* Sets the outcome and schedules the event now; value or exc is NULL. */
static int trigger(EventObject *self, PyObject *value, PyObject *exc) {
    if (TRIGGERED(self)) {
        PyErr_Format(SimulationError, "%R has already been triggered", self);
        return -1;
    }
    if (exc != NULL) {
        Py_INCREF(exc);
        Py_XSETREF(self->exception, exc);
        value = Py_None;
    }
    Py_INCREF(value);
    Py_XSETREF(self->value, value);
    return schedule(self->env, self, 0.0, 1);
}

static PyObject *event_succeed(EventObject *self, PyObject *const *args,
                               Py_ssize_t nargs, PyObject *kwnames) {
    static const char *const names[] = {"value"};
    PyObject *value;
    if (parse_args("succeed", names, 1, 0, args, nargs, kwnames, &value) < 0
            || trigger(self, value ? value : Py_None, NULL) < 0)
        return NULL;
    Py_INCREF(self);
    return (PyObject *) self;
}

static PyObject *event_fail(EventObject *self, PyObject *exc) {
    if (!TRIGGERED(self) && !PyExceptionInstance_Check(exc)) {
        PyErr_SetString(SimulationError, "fail() requires an exception instance");
        return NULL;
    }
    if (trigger(self, NULL, exc) < 0) return NULL;
    Py_INCREF(self);
    return (PyObject *) self;
}

/* Runs the callbacks, then raises the event's exception unless defused. */
static int process_callbacks(EventObject *self) {
    PyObject *callbacks = self->callbacks;
    if (callbacks == NULL || !PyList_Check(callbacks)) {
        PyErr_Format(PyExc_AssertionError, "%R was processed twice", self);
        return -1;
    }
    Py_INCREF(Py_None);
    self->callbacks = Py_None;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
        PyObject *callback = PyList_GET_ITEM(callbacks, i);
        int status;
        Py_INCREF(callback);
        if (Py_IS_TYPE(callback, &ProcessType)) {
            status = process_resume((ProcessObject *) callback, self);
        } else {
            PyObject *result = PyObject_CallOneArg(callback, (PyObject *) self);
            status = result == NULL ? -1 : 0;
            Py_XDECREF(result);
        }
        Py_DECREF(callback);
        if (status < 0) {
            Py_DECREF(callbacks);
            return -1;
        }
    }
    Py_DECREF(callbacks);
    if (HAS_EXC(self) && !self->defused) {
        PyErr_SetObject((PyObject *) Py_TYPE(self->exception), self->exception);
        return -1;
    }
    return 0;
}

static PyObject *event_get_triggered(EventObject *self, void *closure) {
    return PyBool_FromLong(TRIGGERED(self));
}

static PyObject *event_get_processed(EventObject *self, void *closure) {
    return PyBool_FromLong(self->callbacks == Py_None);
}

static PyObject *event_get_value(EventObject *self, void *closure) {
    if (!TRIGGERED(self)) {
        PyErr_SetString(SimulationError, "event value is not yet available");
        return NULL;
    }
    if (HAS_EXC(self)) {
        PyErr_SetObject((PyObject *) Py_TYPE(self->exception), self->exception);
        return NULL;
    }
    Py_INCREF(self->value);
    return self->value;
}

static PyObject *event_repr(EventObject *self) {
    const char *name = strrchr(Py_TYPE(self)->tp_name, '.');
    name = name ? name + 1 : Py_TYPE(self)->tp_name;
    PyObject *now = PyObject_GetAttr(self->env ? self->env : Py_None, str_now);
    if (now == NULL) return NULL;
    PyObject *repr = PyUnicode_FromFormat("<%s %s at t=%S>", name,
                                          TRIGGERED(self) ? "triggered" : "pending", now);
    Py_DECREF(now);
    return repr;
}

static PyMethodDef event_methods[] = {
    {"succeed", (PyCFunction)(void (*)(void)) event_succeed, METH_FASTCALL | METH_KEYWORDS,
     "Trigger the event successfully with ``value``."},
    {"fail", (PyCFunction) event_fail, METH_O, "Trigger the event with an exception."},
    {NULL}
};

static PyMemberDef event_members[] = {
    {"env", T_OBJECT, offsetof(EventObject, env), READONLY, NULL},
    {"callbacks", T_OBJECT, offsetof(EventObject, callbacks), 0, NULL},
    {"_value", T_OBJECT, offsetof(EventObject, value), 0, NULL},
    {"_exception", T_OBJECT, offsetof(EventObject, exception), 0, NULL},
    {"_defused", T_BOOL, offsetof(EventObject, defused), 0, NULL},
    {NULL}
};

static PyGetSetDef event_getset[] = {
    {"triggered", (getter) event_get_triggered, NULL,
     "True once the event has a value and is scheduled for processing."},
    {"processed", (getter) event_get_processed, NULL, "True once callbacks have run."},
    {"value", (getter) event_get_value, NULL, NULL},
    {NULL}
};

static PyTypeObject EventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.core.Event",
    .tp_doc = "An event that may be triggered once with a value or an exception.",
    .tp_basicsize = sizeof(EventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = event_new,
    .tp_init = (initproc) event_init,
    .tp_dealloc = (destructor) event_dealloc,
    .tp_traverse = (traverseproc) event_traverse,
    .tp_clear = (inquiry) event_clear,
    .tp_repr = (reprfunc) event_repr,
    .tp_methods = event_methods,
    .tp_members = event_members,
    .tp_getset = event_getset,
};

/* -- Timeout ---------------------------------------------------------- */

static PyObject *make_timeout(PyObject *env, PyObject *delay_obj, PyObject *value) {
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred()) return NULL;
    if (!(delay >= 0)) {  /* also rejects NaN, which would poison the heap */
        PyErr_Format(SimulationError, "negative or NaN timeout delay: %S", delay_obj);
        return NULL;
    }
    EventObject *self = event_alloc(&TimeoutType, env);
    if (self == NULL) return NULL;
    Py_INCREF(value);
    Py_SETREF(self->value, value);
    if (schedule(env, self, delay, 1) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *) self;
}

static PyObject *timeout_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"env", "delay", "value", NULL};
    PyObject *env, *delay, *value = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O:Timeout", kwlist, &env, &delay, &value))
        return NULL;
    return make_timeout(env, delay, value);
}

static int noop_init(PyObject *self, PyObject *args, PyObject *kwds) { return 0; }

static PyTypeObject TimeoutType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.core.Timeout",
    .tp_doc = "An event that triggers ``delay`` time units after its creation.",
    .tp_basicsize = sizeof(EventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_base = &EventType,
    .tp_new = timeout_new,
    .tp_init = noop_init,
};

/* -- Process ---------------------------------------------------------- */

/* Resumes the generator: 0 = it yielded, 1 = it returned, -1 = it raised.
   *out receives the yielded or returned object. */
static int resume_generator(PyObject *generator, PyObject *value, PyObject *exc,
                            PyObject **out) {
#if PY_VERSION_HEX >= 0x030A0000
    if (exc == NULL && PyGen_CheckExact(generator)) {
        PySendResult status = PyIter_Send(generator, value, out);
        return status == PYGEN_NEXT ? 0 : status == PYGEN_RETURN ? 1 : -1;
    }
#endif
    *out = exc != NULL
        ? PyObject_CallMethodOneArg(generator, str_throw, exc)
        : PyObject_CallMethodOneArg(generator, str_send, value);
    if (*out != NULL) return 0;
    if (!PyErr_ExceptionMatches(PyExc_StopIteration)) return -1;
    PyObject *type, *stop, *traceback;
    PyErr_Fetch(&type, &stop, &traceback);
    PyErr_NormalizeException(&type, &stop, &traceback);
    *out = stop ? PyObject_GetAttr(stop, str_value) : NULL;
    if (*out == NULL) {
        PyErr_Clear();
        Py_INCREF(Py_None);
        *out = Py_None;
    }
    Py_XDECREF(type);
    Py_XDECREF(stop);
    Py_XDECREF(traceback);
    return 1;
}

/* The generator finished: retire the process and trigger it. */
static int process_finish(ProcessObject *self, EnvObject *env, PyObject *value, PyObject *exc) {
    if (env->alive != NULL && PySet_Discard(env->alive, (PyObject *) self) < 0) return -1;
    return trigger(&self->event, value, exc);
}

static int process_resume(ProcessObject *self, EventObject *event) {
    EnvObject *env = (EnvObject *) self->event.env;
    Py_INCREF(event);
    for (;;) {
        PyObject *target;
        int status;
        if (HAS_EXC(event)) {
            event->defused = 1;
            status = resume_generator(self->generator, NULL, event->exception, &target);
        } else {
            status = resume_generator(self->generator, event->value, NULL, &target);
        }
        Py_DECREF(event);
        if (status == 1) {
            status = process_finish(self, env, target, NULL);
            Py_DECREF(target);
            return status;
        }
        if (status < 0) {
            PyObject *type, *exc, *traceback;
            PyErr_Fetch(&type, &exc, &traceback);
            PyErr_NormalizeException(&type, &exc, &traceback);
            if (traceback != NULL) PyException_SetTraceback(exc, traceback);
            status = process_finish(self, env, NULL, exc);
            Py_XDECREF(type);
            Py_XDECREF(exc);
            Py_XDECREF(traceback);
            return status;
        }
        if (!PyObject_TypeCheck(target, &EventType)) {
            PyErr_Format(SimulationError, "process yielded a non-event: %R", target);
            Py_DECREF(target);
            return -1;
        }
        event = (EventObject *) target;
        if (event->callbacks == Py_None) continue;  /* processed: resume at once */
        if (event->callbacks == NULL || !PyList_Check(event->callbacks)) {
            PyErr_SetString(PyExc_TypeError, "event callbacks must be a list");
            Py_DECREF(target);
            return -1;
        }
        status = PyList_Append(event->callbacks, (PyObject *) self);
        Py_DECREF(target);
        return status;
    }
}

/* name, daemon and priority may be NULL (their defaults). */
static PyObject *make_process(PyObject *env, PyObject *generator, PyObject *name,
                             PyObject *daemon, PyObject *priority_obj) {
    if (!PyObject_TypeCheck(env, &EnvType)) {
        PyErr_Format(PyExc_TypeError, "%R is not a compiled-kernel environment", env);
        return NULL;
    }
    long priority = priority_obj ? PyLong_AsLong(priority_obj) : 1;
    if (priority == -1 && PyErr_Occurred()) return NULL;
    int is_daemon = daemon ? PyObject_IsTrue(daemon) : 0;
    int named = name ? PyObject_IsTrue(name) : 0;
    if (is_daemon < 0 || named < 0) return NULL;
    if (!PyObject_HasAttr(generator, str_throw)) {
        PyErr_Format(SimulationError, "%R is not a generator", generator);
        return NULL;
    }
    ProcessObject *self = (ProcessObject *) event_alloc(&ProcessType, env);
    if (self == NULL) return NULL;
    Py_INCREF(generator);
    self->generator = generator;
    if (named) {
        Py_INCREF(name);
        self->name = name;
    } else {
        self->name = PyObject_GetAttr(generator, str_name);
        if (self->name == NULL) {
            if (!PyErr_ExceptionMatches(PyExc_AttributeError)) goto error;
            PyErr_Clear();
            self->name = PyUnicode_FromString("process");
            if (self->name == NULL) goto error;
        }
    }
    /* Daemon processes (e.g. server listen loops) are expected to stay
       blocked forever and are exempt from stall detection. */
    self->daemon = (char) is_daemon;
    /* The initialize event starts the generator at the current time;
       priority > 1 starts the process only after all normal-priority work
       of the instant. */
    EventObject *init = event_alloc(&EventType, env);
    if (init == NULL) goto error;
    Py_INCREF(Py_None);
    Py_SETREF(init->value, Py_None);
    int status = (PyList_Append(init->callbacks, (PyObject *) self) < 0
                  || schedule(env, init, 0.0, priority) < 0) ? -1 : 0;
    Py_DECREF(init);
    if (status < 0) goto error;
    EnvObject *e = (EnvObject *) env;
    if (PySet_Add(e->alive, (PyObject *) self) < 0) goto error;
    e->processes_started++;
    return (PyObject *) self;
error:
    Py_DECREF(self);
    return NULL;
}

static PyObject *process_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"env", "generator", "name", "daemon", "priority", NULL};
    PyObject *env, *generator, *name = NULL, *daemon = NULL, *priority = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|OOO:Process", kwlist,
                                     &env, &generator, &name, &daemon, &priority))
        return NULL;
    return make_process(env, generator, name, daemon, priority);
}

static int process_traverse(ProcessObject *self, visitproc visit, void *arg) {
    Py_VISIT(self->generator);
    Py_VISIT(self->name);
    return event_traverse(&self->event, visit, arg);
}

static int process_clear(ProcessObject *self) {
    Py_CLEAR(self->generator);
    Py_CLEAR(self->name);
    return event_clear(&self->event);
}

static void process_dealloc(ProcessObject *self) {
    PyObject_GC_UnTrack(self);
    process_clear(self);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

static PyMemberDef process_members[] = {
    {"name", T_OBJECT, offsetof(ProcessObject, name), 0, NULL},
    {"daemon", T_BOOL, offsetof(ProcessObject, daemon), 0, NULL},
    {NULL}
};

static PyTypeObject ProcessType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.core.Process",
    .tp_doc = "Wraps a generator; the process itself is an event that triggers when\n"
              "the generator returns (with its return value) or raises.",
    .tp_basicsize = sizeof(ProcessObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_base = &EventType,
    .tp_new = process_new,
    .tp_init = noop_init,
    .tp_dealloc = (destructor) process_dealloc,
    .tp_traverse = (traverseproc) process_traverse,
    .tp_clear = (inquiry) process_clear,
    .tp_members = process_members,
};

/* -- Environment ------------------------------------------------------ */

static PyObject *env_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    EnvObject *self = (EnvObject *) type->tp_alloc(type, 0);
    if (self == NULL) return NULL;
    self->hooks = PyList_New(0);
    self->alive = PySet_New(NULL);
    if (self->hooks == NULL || self->alive == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *) self;
}

static int env_init(EnvObject *self, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"initial_time", NULL};
    double initial_time = 0.0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|d:Environment", kwlist, &initial_time))
        return -1;
    self->now = initial_time;
    return 0;
}

static int env_traverse(EnvObject *self, visitproc visit, void *arg) {
    for (Py_ssize_t i = 0; i < self->heap_len; i++) Py_VISIT(self->heap[i].event);
    for (Py_ssize_t i = 0; i < self->ring_len; i++)
        Py_VISIT(self->ring[(self->ring_head + i) & (self->ring_cap - 1)].event);
    Py_VISIT(self->hooks);
    Py_VISIT(self->alive);
    return 0;
}

static int env_clear(EnvObject *self) {
    while (self->heap_len > 0) {
        PyObject *event = self->heap[--self->heap_len].event;
        Py_DECREF(event);
    }
    while (self->ring_len > 0) {
        PyObject *event = ring_pop(self);
        Py_DECREF(event);
    }
    Py_CLEAR(self->hooks);
    Py_CLEAR(self->alive);
    return 0;
}

static void env_dealloc(EnvObject *self) {
    PyObject_GC_UnTrack(self);
    env_clear(self);
    PyMem_Free(self->heap);
    PyMem_Free(self->ring);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

/* Runs the instant-end hooks while the current instant has drained. */
static int flush_hooks(EnvObject *self) {
    while (HOOKS_PENDING(self) && DRAINED(self)) {
        PyObject *hooks = self->hooks;
        self->hooks = PyList_New(0);
        if (self->hooks == NULL) {
            self->hooks = hooks;
            return -1;
        }
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(hooks); i++) {
            PyObject *hook = PyList_GET_ITEM(hooks, i);
            Py_INCREF(hook);
            PyObject *result = PyObject_CallNoArgs(hook);
            Py_DECREF(hook);
            if (result == NULL) {
                Py_DECREF(hooks);
                return -1;
            }
            Py_DECREF(result);
        }
        Py_DECREF(hooks);
    }
    return 0;
}

static int env_step_impl(EnvObject *self) {
    if (HOOKS_PENDING(self) && DRAINED(self) && flush_hooks(self) < 0) return -1;
    PyObject *event;
    if (self->ring_len > 0) {
        Entry *head = self->heap;
        if (self->heap_len > 0 && head->time == self->now
                && (head->priority < 1 || (head->priority == 1
                    && head->eid < self->ring[self->ring_head].eid)))
            event = heap_pop(self);
        else
            event = ring_pop(self);
    } else {
        if (self->heap_len == 0) {
            PyErr_SetString(SimulationError, "no more events to process");
            return -1;
        }
        self->now = self->heap[0].time;
        event = heap_pop(self);
    }
    self->events_processed++;
    int status = process_callbacks((EventObject *) event);
    Py_DECREF(event);
    return status;
}

static double env_peek_impl(EnvObject *self) {
    if (self->ring_len > 0 || HOOKS_PENDING(self)) return self->now;
    if (self->heap_len == 0) return Py_HUGE_VAL;
    return self->heap[0].time;
}

static PyObject *env_step(EnvObject *self, PyObject *unused) {
    if (env_step_impl(self) < 0) return NULL;
    Py_RETURN_NONE;
}

static PyObject *env_peek(EnvObject *self, PyObject *unused) {
    return PyFloat_FromDouble(env_peek_impl(self));
}

/* run()'s loop: returns once stop_event is processed, the next activity
   lies beyond stop_time (the clock then reads stop_time), or nothing is
   left to do. */
static PyObject *env_run(EnvObject *self, PyObject *args) {
    PyObject *stop_event, *stop_time_obj;
    if (!PyArg_ParseTuple(args, "OO:_run", &stop_event, &stop_time_obj)) return NULL;
    if (stop_event != Py_None && !PyObject_TypeCheck(stop_event, &EventType)) {
        PyErr_SetString(PyExc_TypeError, "_run() needs an Event or None");
        return NULL;
    }
    EventObject *until = stop_event == Py_None ? NULL : (EventObject *) stop_event;
    int timed = stop_time_obj != Py_None;
    double stop_time = timed ? PyFloat_AsDouble(stop_time_obj) : 0.0;
    if (stop_time == -1.0 && PyErr_Occurred()) return NULL;
    while (self->heap_len > 0 || self->ring_len > 0 || HOOKS_PENDING(self)) {
        if (until != NULL && until->callbacks == Py_None) break;
        if (timed && env_peek_impl(self) > stop_time) {
            self->now = stop_time;
            break;
        }
        if (HOOKS_PENDING(self) && DRAINED(self)) {
            /* The current instant has drained: run the instant-end hooks,
               then re-apply the stop checks before any event they
               scheduled (possibly later than stop_time) runs. */
            if (flush_hooks(self) < 0) return NULL;
            continue;
        }
        if (env_step_impl(self) < 0) return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *env_event(EnvObject *self, PyObject *unused) {
    return (PyObject *) event_alloc(&EventType, (PyObject *) self);
}

static PyObject *env_timeout(EnvObject *self, PyObject *const *args,
                             Py_ssize_t nargs, PyObject *kwnames) {
    static const char *const names[] = {"delay", "value"};
    PyObject *out[2];
    if (parse_args("timeout", names, 2, 1, args, nargs, kwnames, out) < 0) return NULL;
    return make_timeout((PyObject *) self, out[0], out[1] ? out[1] : Py_None);
}

static PyObject *env_process(EnvObject *self, PyObject *const *args,
                             Py_ssize_t nargs, PyObject *kwnames) {
    static const char *const names[] = {"generator", "name", "daemon", "priority"};
    PyObject *out[4];
    if (parse_args("process", names, 4, 1, args, nargs, kwnames, out) < 0) return NULL;
    return make_process((PyObject *) self, out[0], out[1], out[2], out[3]);
}

static PyObject *env_defer(EnvObject *self, PyObject *callback) {
    if (self->hooks == NULL || PyList_Append(self->hooks, callback) < 0) return NULL;
    Py_RETURN_NONE;
}

static PyObject *env_get_now(EnvObject *self, void *closure) {
    return PyFloat_FromDouble(self->now);
}

static PyMethodDef env_methods[] = {
    {"event", (PyCFunction) env_event, METH_NOARGS, NULL},
    {"process", (PyCFunction)(void (*)(void)) env_process, METH_FASTCALL | METH_KEYWORDS,
     "Start a process running ``generator`` (see core.Environment.process)."},
    {"defer_to_instant_end", (PyCFunction) env_defer, METH_O,
     "Run ``callback`` once the current instant's cohort has drained."},
    {"timeout", (PyCFunction)(void (*)(void)) env_timeout, METH_FASTCALL | METH_KEYWORDS, NULL},
    {"step", (PyCFunction) env_step, METH_NOARGS,
     "Process the next scheduled event (instant-end hooks first, once the\n"
     "current instant has drained)."},
    {"peek", (PyCFunction) env_peek, METH_NOARGS,
     "Time of the next scheduled activity, or +inf if none."},
    {"_run", (PyCFunction) env_run, METH_VARARGS, NULL},
    {NULL}
};

static PyMemberDef env_members[] = {
    {"_now", T_DOUBLE, offsetof(EnvObject, now), 0, NULL},
    {"_alive", T_OBJECT, offsetof(EnvObject, alive), READONLY, NULL},
    {"events_processed", T_LONGLONG, offsetof(EnvObject, events_processed), 0, NULL},
    {"processes_started", T_LONGLONG, offsetof(EnvObject, processes_started), 0, NULL},
    {NULL}
};

static PyGetSetDef env_getset[] = {
    {"now", (getter) env_get_now, NULL, NULL},
    {NULL}
};

static PyTypeObject EnvType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit._eventcore.Environment",
    .tp_doc = "The compiled event queue and loop behind core.Environment.",
    .tp_basicsize = sizeof(EnvObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = env_new,
    .tp_init = (initproc) env_init,
    .tp_dealloc = (destructor) env_dealloc,
    .tp_traverse = (traverseproc) env_traverse,
    .tp_clear = (inquiry) env_clear,
    .tp_methods = env_methods,
    .tp_members = env_members,
    .tp_getset = env_getset,
};

/* -- module ----------------------------------------------------------- */

static PyObject *setup(PyObject *module, PyObject *args) {
    PyObject *error, *pending;
    if (!PyArg_ParseTuple(args, "OO:setup", &error, &pending)) return NULL;
    Py_INCREF(error);
    Py_XSETREF(SimulationError, error);
    Py_INCREF(pending);
    Py_XSETREF(Pending, pending);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"setup", setup, METH_VARARGS,
     "setup(SimulationError, pending): bind the exception class the kernel\n"
     "raises and the not-yet-triggered sentinel."},
    {NULL}
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_ckernel", NULL, -1, module_methods,
};

PyMODINIT_FUNC PyInit__ckernel(void) {
    if ((str_send = PyUnicode_InternFromString("send")) == NULL
            || (str_throw = PyUnicode_InternFromString("throw")) == NULL
            || (str_name = PyUnicode_InternFromString("__name__")) == NULL
            || (str_now = PyUnicode_InternFromString("now")) == NULL
            || (str_value = PyUnicode_InternFromString("value")) == NULL)
        return NULL;
    if (PyType_Ready(&EventType) < 0 || PyType_Ready(&TimeoutType) < 0
            || PyType_Ready(&ProcessType) < 0 || PyType_Ready(&EnvType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&module_def);
    if (module == NULL) return NULL;
    PyTypeObject *types[] = {&EventType, &TimeoutType, &ProcessType, &EnvType};
    const char *names[] = {"Event", "Timeout", "Process", "Environment"};
    for (int i = 0; i < 4; i++) {
        Py_INCREF(types[i]);
        if (PyModule_AddObject(module, names[i], (PyObject *) types[i]) < 0) {
            Py_DECREF(types[i]);
            Py_DECREF(module);
            return NULL;
        }
    }
    return module;
}
"""

_MODULE = "repro.simkit._ckernel"


def _import(path) -> ModuleType:
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, str(path))
    spec = importlib.util.spec_from_file_location(_MODULE, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


_FLAGS = (
    f"-I{sysconfig.get_paths()['include']}",
    # The ABI the extension is built for is part of its cache key.
    f"-DREPRO_ABI={sysconfig.get_config_var('SOABI')}",
)


@functools.lru_cache(maxsize=None)
def kernel() -> Optional[ModuleType]:
    """The compiled kernel's extension module, or None (no compiler /
    opted out); probed once per process."""
    return _native.load("eventcore", _C_SOURCE, _FLAGS, _import, "event kernel")
