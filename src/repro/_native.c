/* The simulator's compiled cores: one CPython extension, repro._ckernel.

   repro/_native.py compiles this file with plain cc (-O2
   -ffp-contract=off) at first use and imports it.  It holds two cores:

   * the event kernel: Event, Timeout, Process, Condition/AllOf/AnyOf
     and the Environment base type behind repro.simkit.core, and the
     wait primitives repro.simkit binds: Resource (and its hold, the
     generator-free process every GPU kernel runs as), PriorityResource,
     Store and Container with their request, put and get events (see
     repro/simkit/core.py);
   * the fluid network's kernel: advance, admit, retire, settle and
     waterfill, the C loops behind repro.netsim._waterfill,
     plus the two packers, ledger() and tables(), whose objects carry the
     network's arrays into those loops, and the network's bookkeeping
     around them: stage, activate, fire and recompute, over the state of the
     FluidNetwork base type behind repro.netsim.fluid.FluidNetwork and
     the fields of the Flow base type behind repro.netsim.fluid.Flow.
     The four are also that type's methods _stage, _activate, _fire and
     _recompute.

   Every fluid function of the module is METH_FASTCALL, and every array reaches
   C through the buffer protocol: a packer holds one buffer view per
   array, checked for dtype, C-contiguity and writability, and the views
   keep the arrays alive.  No raw address crosses from Python.  Only
   PyInit__ckernel is exported; every other function is static.  The
   tests keep a pure-python twin of every type and entry (tests/reference/),
   which "the reference" below names. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if PY_VERSION_HEX < 0x030A0000
static inline PyObject *Py_NewRef(PyObject *obj) {
    Py_INCREF(obj);
    return obj;
}
#endif

/* == event kernel ====================================================== */

/* Bound by setup(): the exception class the event kernel raises and
   the "not yet triggered" sentinel of core.py. */
static PyObject *SimulationError, *Pending;
static PyObject *str_send, *str_throw, *str_name, *str_now, *str_value, *str_hold;
static PyObject *zero;  /* 0.0 */

typedef struct {
    PyObject_HEAD
    PyObject *env;
    PyObject *callback;   /* the first callback, inline while callbacks is NULL */
    PyObject *callbacks;  /* NULL until a second callback or a Python read, then a
                             list; None once processed */
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

static PyTypeObject EventType, TimeoutType, ProcessType, EnvType, ConditionType, AnyOfType,
    HoldType;

#define HAS_EXC(e) ((e)->exception != NULL && (e)->exception != Py_None)
#define TRIGGERED(e) ((e)->value != Pending || HAS_EXC(e))
#define HOOKS_PENDING(env) ((env)->hooks != NULL && PyList_GET_SIZE((env)->hooks) > 0)
#define DRAINED(env) ((env)->ring_len == 0 && \
    ((env)->heap_len == 0 || (env)->heap[0].time > (env)->now))

static int process_resume(ProcessObject *self, EventObject *event);
static int condition_check(PyObject *self, EventObject *event);
typedef struct HoldObject HoldObject;
static int hold_resume(HoldObject *self, EventObject *event);

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
    Py_VISIT(self->callback);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    Py_VISIT(self->exception);
    return 0;
}

static int event_clear(EventObject *self) {
    Py_CLEAR(self->env);
    Py_CLEAR(self->callback);
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

/* Registers `callback` on a pending event: inline if it is the first,
   else in the list, which the second one creates. */
static int add_callback(EventObject *event, PyObject *callback) {
    PyObject *callbacks = event->callbacks;
    if (callbacks == NULL) {
        if (event->callback == NULL) {
            event->callback = Py_NewRef(callback);
            return 0;
        }
        if ((callbacks = PyList_New(2)) == NULL) return -1;
        PyList_SET_ITEM(callbacks, 0, event->callback);  /* the slot's reference */
        PyList_SET_ITEM(callbacks, 1, Py_NewRef(callback));
        event->callback = NULL;
        event->callbacks = callbacks;
        return 0;
    }
    if (!PyList_Check(callbacks)) {
        PyErr_SetString(PyExc_TypeError, "event callbacks must be a list");
        return -1;
    }
    return PyList_Append(callbacks, callback);
}

/* Runs one callback: a process or a hold resumes, a condition counts
   the event, anything else is called with it. */
static int run_callback(EventObject *self, PyObject *callback) {
    if (Py_IS_TYPE(callback, &ProcessType))
        return process_resume((ProcessObject *) callback, self);
    if (Py_IS_TYPE(callback, &HoldType))
        return hold_resume((HoldObject *) callback, self);
    if (PyObject_TypeCheck(callback, &ConditionType))
        return condition_check(callback, self);
    PyObject *result = PyObject_CallOneArg(callback, (PyObject *) self);
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

/* Runs the callbacks, then raises the event's exception unless defused. */
static int process_callbacks(EventObject *self) {
    PyObject *callbacks = self->callbacks, *callback = self->callback;
    if (callbacks != NULL && !PyList_Check(callbacks)) {
        PyErr_Format(PyExc_AssertionError, "%R was processed twice", self);
        return -1;
    }
    /* The references move to this frame. */
    self->callbacks = Py_NewRef(Py_None);
    self->callback = NULL;
    int status = 0;
    if (callback != NULL) {
        status = run_callback(self, callback);
        Py_DECREF(callback);
    } else if (callbacks != NULL) {
        for (Py_ssize_t i = 0; status == 0 && i < PyList_GET_SIZE(callbacks); i++) {
            callback = Py_NewRef(PyList_GET_ITEM(callbacks, i));
            status = run_callback(self, callback);
            Py_DECREF(callback);
        }
    }
    Py_XDECREF(callbacks);
    if (status < 0) return -1;
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

/* The callbacks as a list, which a read creates from the inline slot
   and keeps, so what Python appends C runs too; None once processed. */
static PyObject *event_get_callbacks(EventObject *self, void *closure) {
    if (self->callbacks == NULL) {
        PyObject *callbacks = PyList_New(self->callback != NULL);
        if (callbacks == NULL) return NULL;
        if (self->callback != NULL) PyList_SET_ITEM(callbacks, 0, self->callback);
        self->callback = NULL;
        self->callbacks = callbacks;
    }
    return Py_NewRef(self->callbacks);
}

static int event_set_callbacks(EventObject *self, PyObject *value, void *closure) {
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete an event's callbacks");
        return -1;
    }
    Py_CLEAR(self->callback);
    Py_XSETREF(self->callbacks, Py_NewRef(value));
    return 0;
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
    {"_value", T_OBJECT, offsetof(EventObject, value), 0, NULL},
    {"_exception", T_OBJECT, offsetof(EventObject, exception), 0, NULL},
    {"_defused", T_BOOL, offsetof(EventObject, defused), 0, NULL},
    {NULL}
};

static PyGetSetDef event_getset[] = {
    {"triggered", (getter) event_get_triggered, NULL,
     "True once the event has a value and is scheduled for processing."},
    {"processed", (getter) event_get_processed, NULL, "True once callbacks have run."},
    {"callbacks", (getter) event_get_callbacks, (setter) event_set_callbacks,
     "What runs when the event is processed, in registration order (a list);\n"
     "None once processed."},
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

/* A Timeout due `delay` after now; a rejected delay is shown as `shown`,
   or as a float when that is NULL. */
static PyObject *new_timeout(PyObject *env, double delay, PyObject *value, PyObject *shown) {
    if (!(delay >= 0)) {  /* also rejects NaN, which would poison the heap */
        PyObject *number = shown ? shown : PyFloat_FromDouble(delay);
        if (number != NULL)
            PyErr_Format(SimulationError, "negative or NaN timeout delay: %S", number);
        if (shown == NULL) Py_XDECREF(number);
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

static PyObject *make_timeout(PyObject *env, PyObject *delay_obj, PyObject *value) {
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred()) return NULL;
    return new_timeout(env, delay, value, delay_obj);
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
        status = add_callback(event, (PyObject *) self);
        Py_DECREF(target);
        return status;
    }
}

/* Schedules the initialize event that starts a new process (or hold) at
   the current time, and counts it alive; priority > 1 starts it only
   after all normal-priority work of the instant. */
static int start_process(ProcessObject *self, long priority) {
    PyObject *env = self->event.env;
    EventObject *init = event_alloc(&EventType, env);
    if (init == NULL) return -1;
    Py_INCREF(Py_None);
    Py_SETREF(init->value, Py_None);
    int status = (add_callback(init, (PyObject *) self) < 0
                  || schedule(env, init, 0.0, priority) < 0) ? -1 : 0;
    Py_DECREF(init);
    if (status < 0) return -1;
    EnvObject *e = (EnvObject *) env;
    if (PySet_Add(e->alive, (PyObject *) self) < 0) return -1;
    e->processes_started++;
    return 0;
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
    if (start_process(self, priority) < 0) goto error;
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

/* close(): the scheduled events and the pending instant-end hooks are
   dropped.  A run stopped at its until= event may leave both, and each
   callback they hold (a network's deferred re-solve, a timer's process)
   reaches back to the environment: dropped, they leave no cycle. */
static PyObject *env_close(EnvObject *self, PyObject *unused) {
    PyObject *hooks = PyList_New(0);
    if (hooks == NULL) return NULL;
    Py_XSETREF(self->hooks, hooks);
    while (self->heap_len > 0) {
        PyObject *event = self->heap[--self->heap_len].event;
        Py_DECREF(event);
    }
    while (self->ring_len > 0) {
        PyObject *event = ring_pop(self);
        Py_DECREF(event);
    }
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
    {"close", (PyCFunction) env_close, METH_NOARGS,
     "Drop the scheduled events and the pending instant-end hooks."},
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
    .tp_name = "repro._ckernel.Environment",
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

/* -- Condition, AllOf, AnyOf ------------------------------------------ */

/* A condition registers itself as each pending constituent's callback,
   as a process does, and the dispatch counts it in condition_check. */
enum { EVALUATE, ALL_OF, ANY_OF };

typedef struct {
    EventObject event;
    PyObject *evaluate;   /* evaluate(total, done) -> bool; NULL for AllOf/AnyOf */
    Py_ssize_t total, count;
    char mode;
} ConditionObject;

/* One constituent was processed: count it, then fail with its exception
   (defused) or succeed once the condition holds. */
static int condition_check(PyObject *obj, EventObject *event) {
    ConditionObject *self = (ConditionObject *) obj;
    if (TRIGGERED(&self->event)) return 0;
    self->count++;
    if (HAS_EXC(event)) {
        event->defused = 1;
        return trigger(&self->event, NULL, event->exception);
    }
    int holds;
    if (self->mode == ALL_OF) {
        holds = self->count == self->total;
    } else if (self->mode == ANY_OF) {
        holds = self->count >= 1;
    } else {
        PyObject *result = PyObject_CallFunction(self->evaluate, "nn", self->total, self->count);
        if (result == NULL) return -1;
        holds = PyObject_IsTrue(result);
        Py_DECREF(result);
        if (holds < 0) return -1;
    }
    return holds ? trigger(&self->event, Py_None, NULL) : 0;
}

/* A condition over list(events), all of env: an empty one succeeds at
   once; processed constituents are checked now, in list order. */
static PyObject *make_condition(PyTypeObject *type, PyObject *env, char mode,
                                PyObject *evaluate, PyObject *events) {
    PyObject *list = PySequence_List(events);
    if (list == NULL) return NULL;
    ConditionObject *self = (ConditionObject *) event_alloc(type, env);
    if (self == NULL) goto error;
    Py_XINCREF(evaluate);
    self->evaluate = evaluate;
    self->mode = mode;
    self->total = PyList_GET_SIZE(list);
    for (Py_ssize_t i = 0; i < self->total; i++) {
        PyObject *item = PyList_GET_ITEM(list, i);
        if (!PyObject_TypeCheck(item, &EventType)) {
            PyErr_Format(PyExc_TypeError, "%R is not an event", item);
            goto error;
        }
        if (((EventObject *) item)->env != env) {
            PyErr_SetString(SimulationError, "events belong to different environments");
            goto error;
        }
    }
    if (self->total == 0 && trigger(&self->event, Py_None, NULL) < 0) goto error;
    for (Py_ssize_t i = 0; i < self->total; i++) {
        EventObject *item = (EventObject *) PyList_GET_ITEM(list, i);
        int status;
        status = item->callbacks == Py_None
            ? condition_check((PyObject *) self, item)
            : add_callback(item, (PyObject *) self);
        if (status < 0) goto error;
    }
    Py_DECREF(list);
    return (PyObject *) self;
error:
    Py_DECREF(list);
    Py_XDECREF(self);
    return NULL;
}

static PyObject *condition_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"env", "evaluate", "events", NULL};
    PyObject *env, *evaluate, *events;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO:Condition", kwlist,
                                     &env, &evaluate, &events))
        return NULL;
    return make_condition(type, env, EVALUATE, evaluate, events);
}

/* AllOf(env, events) and AnyOf(env, events), by tp_new or vectorcall. */
static PyObject *all_any_vectorcall(PyObject *type, PyObject *const *args,
                                    size_t nargsf, PyObject *kwnames) {
    static const char *const names[] = {"env", "events"};
    PyTypeObject *kind = (PyTypeObject *) type;
    PyObject *out[2];
    if (parse_args(kind->tp_name, names, 2, 2, args, PyVectorcall_NARGS(nargsf),
                   kwnames, out) < 0)
        return NULL;
    char mode = PyType_IsSubtype(kind, &AnyOfType) ? ANY_OF : ALL_OF;
    return make_condition(kind, out[0], mode, NULL, out[1]);
}

static PyObject *all_any_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    return PyVectorcall_Call((PyObject *) type, args, kwds);
}

static int condition_traverse(ConditionObject *self, visitproc visit, void *arg) {
    Py_VISIT(self->evaluate);
    return event_traverse(&self->event, visit, arg);
}

static int condition_clear(ConditionObject *self) {
    Py_CLEAR(self->evaluate);
    return event_clear(&self->event);
}

static void condition_dealloc(ConditionObject *self) {
    PyObject_GC_UnTrack(self);
    condition_clear(self);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

static PyTypeObject ConditionType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.core.Condition",
    .tp_doc = "Waits on a set of events until ``evaluate`` says the condition holds.\n\n"
              "A condition triggers with ``None``, or fails with the first\n"
              "constituent failure.",
    .tp_basicsize = sizeof(ConditionObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_base = &EventType,
    .tp_new = condition_new,
    .tp_init = noop_init,
    .tp_dealloc = (destructor) condition_dealloc,
    .tp_traverse = (traverseproc) condition_traverse,
    .tp_clear = (inquiry) condition_clear,
};

static PyTypeObject AllOfType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.core.AllOf",
    .tp_doc = "Triggered when all constituent events have triggered.",
    .tp_basicsize = sizeof(ConditionObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_base = &ConditionType,
    .tp_new = all_any_new,
    .tp_vectorcall = all_any_vectorcall,
};

static PyTypeObject AnyOfType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.core.AnyOf",
    .tp_doc = "Triggered when any constituent event has triggered.",
    .tp_basicsize = sizeof(ConditionObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_base = &ConditionType,
    .tp_new = all_any_new,
    .tp_vectorcall = all_any_vectorcall,
};

/* -- wait primitives: shared pieces ----------------------------------- */

/* An event that carries a StorePut's item or a container put's or get's
   amount. */
typedef struct {
    EventObject event;
    PyObject *item;
} ItemEventObject;

static PyTypeObject ResourceType, PriorityResourceType, RequestType, PriorityRequestType,
    StoreType, StorePutType, StoreGetType, ContainerType, ContainerPutType, ContainerGetType;

/* Removes and returns (a new reference) a list's first item. */
static PyObject *pop_front(PyObject *list) {
    PyObject *head = PyList_GET_ITEM(list, 0);
    Py_INCREF(head);
    if (PyList_SetSlice(list, 0, 1, NULL) < 0) {
        Py_DECREF(head);
        return NULL;
    }
    return head;
}

/* Position of `item` in `list` by identity, or -1. */
static Py_ssize_t index_of(PyObject *list, PyObject *item) {
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(list); i++)
        if (PyList_GET_ITEM(list, i) == item) return i;
    return -1;
}

/* An event of `type` on env, appended to `queue`; item may be NULL. */
static ItemEventObject *queue_event(PyTypeObject *type, PyObject *env, PyObject *queue,
                                    PyObject *item) {
    ItemEventObject *self = (ItemEventObject *) event_alloc(type, env);
    if (self == NULL) return NULL;
    if (item != NULL) {
        Py_INCREF(item);
        self->item = item;
    }
    if (PyList_Append(queue, (PyObject *) self) < 0) Py_CLEAR(self);
    return self;
}

/* The environment of a resource, store or container: a compiled one. */
static int check_env(PyObject *env) {
    if (PyObject_TypeCheck(env, &EnvType)) return 0;
    PyErr_Format(PyExc_TypeError, "%R is not a compiled-kernel environment", env);
    return -1;
}

static int item_event_traverse(ItemEventObject *self, visitproc visit, void *arg) {
    Py_VISIT(self->item);
    return event_traverse(&self->event, visit, arg);
}

static int item_event_clear(ItemEventObject *self) {
    Py_CLEAR(self->item);
    return event_clear(&self->event);
}

static void item_event_dealloc(ItemEventObject *self) {
    PyObject_GC_UnTrack(self);
    item_event_clear(self);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

/* -- Resource, PriorityResource --------------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *env;
    PyObject *users;      /* granted requests, in grant order (a list) */
    PyObject *queue;      /* waiting requests (a list): FIFO, or for a
                             PriorityResource a binary heap by key */
    Py_ssize_t capacity;
    char prioritized;
} ResourceObject;

/* Request and PriorityRequest; a plain Request leaves the key unset. */
typedef struct {
    EventObject event;
    PyObject *resource;
    PyObject *priority;
    double rank, time;    /* the key: (priority as a double, request time, seq) */
    unsigned long long seq;
} RequestObject;

static unsigned long long request_seq;

static int key_less(PyObject *a, PyObject *b) {
    RequestObject *x = (RequestObject *) a, *y = (RequestObject *) b;
    if (x->rank != y->rank) return x->rank < y->rank;
    if (x->time != y->time) return x->time < y->time;
    return x->seq < y->seq;
}

/* Restores the heap order of items[0, n) around position i.  The keys
   are distinct (seq is), so the head is the minimum the reference's sort
   puts first. */
static void sift(PyObject **items, Py_ssize_t n, Py_ssize_t i) {
    PyObject *item = items[i];
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!key_less(item, items[parent])) break;
        items[i] = items[parent];
        i = parent;
    }
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && key_less(items[child + 1], items[child])) child++;
        if (!key_less(items[child], item)) break;
        items[i] = items[child];
        i = child;
    }
    items[i] = item;
}

/* Removes and returns (a new reference) the waiting request at position
   i: the FIFO closes the gap; the heap moves its last entry in. */
static PyObject *queue_take(ResourceObject *self, Py_ssize_t i) {
    PyObject *queue = self->queue;
    PyObject **items = ((PyListObject *) queue)->ob_item;
    PyObject *request = items[i];
    Py_INCREF(request);
    Py_ssize_t last = PyList_GET_SIZE(queue) - 1, gap = i;
    if (self->prioritized) {
        items[i] = items[last];
        items[last] = request;
        gap = last;
    }
    if (PyList_SetSlice(queue, gap, gap + 1, NULL) < 0) {
        Py_DECREF(request);
        return NULL;
    }
    if (gap != i) sift(((PyListObject *) queue)->ob_item, last, i);
    return request;
}

/* Grants waiting requests, in queue order, while a slot is free. */
static int grant(ResourceObject *self) {
    while (PyList_GET_SIZE(self->queue) > 0 && PyList_GET_SIZE(self->users) < self->capacity) {
        PyObject *request = queue_take(self, 0);
        if (request == NULL) return -1;
        int status = PyList_Append(self->users, request) < 0 ? -1
            : trigger((EventObject *) request, Py_None, NULL);
        Py_DECREF(request);
        if (status < 0) return -1;
    }
    return 0;
}

/* A request of `type` on `owner`, queued and granted when a slot is
   free; priority is NULL for a plain Request. */
static PyObject *make_request(PyTypeObject *type, PyObject *owner, PyObject *priority) {
    if (!PyObject_TypeCheck(owner, &ResourceType)) {
        PyErr_Format(PyExc_TypeError, "%R is not a Resource", owner);
        return NULL;
    }
    ResourceObject *resource = (ResourceObject *) owner;
    double rank = 0.0;
    if (priority != NULL) {
        rank = PyFloat_AsDouble(priority);
        if (rank == -1.0 && PyErr_Occurred()) return NULL;
        if (isnan(rank)) {
            PyErr_SetString(SimulationError, "request priority must not be NaN");
            return NULL;
        }
    } else if (resource->prioritized) {
        PyErr_SetString(PyExc_TypeError, "a PriorityResource takes PriorityRequests");
        return NULL;
    }
    RequestObject *self = (RequestObject *) event_alloc(type, resource->env);
    if (self == NULL) return NULL;
    Py_INCREF(owner);
    self->resource = owner;
    if (priority != NULL) {
        Py_INCREF(priority);
        self->priority = priority;
        self->rank = rank;
        self->time = ((EnvObject *) resource->env)->now;
        self->seq = ++request_seq;
    }
    PyObject *queue = resource->queue;
    int status = PyList_Append(queue, (PyObject *) self);
    if (status == 0 && resource->prioritized)
        sift(((PyListObject *) queue)->ob_item, PyList_GET_SIZE(queue), PyList_GET_SIZE(queue) - 1);
    if (status < 0 || grant(resource) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *) self;
}

/* Withdraws a request that has not been granted yet. */
static int cancel(RequestObject *request) {
    ResourceObject *resource = (ResourceObject *) request->resource;
    Py_ssize_t i = index_of(resource->queue, (PyObject *) request);
    if (i < 0) return 0;
    PyObject *taken = queue_take(resource, i);
    Py_XDECREF(taken);
    return taken == NULL ? -1 : 0;
}

/* Frees the slot held by `request`, or withdraws it if it has none. */
static int release(ResourceObject *self, PyObject *request) {
    if (!PyObject_TypeCheck(request, &RequestType)) {
        PyErr_Format(PyExc_TypeError, "%R is not a Request", request);
        return -1;
    }
    Py_ssize_t i = index_of(self->users, request);
    if (i < 0) return cancel((RequestObject *) request);
    return PyList_SetSlice(self->users, i, i + 1, NULL) < 0 ? -1 : grant(self);
}

static PyObject *request_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"resource", "priority", NULL};
    PyObject *resource, *priority = zero;
    int prioritized = PyType_IsSubtype(type, &PriorityRequestType);
    if (!PyArg_ParseTupleAndKeywords(args, kwds, prioritized ? "O|O:PriorityRequest"
                                     : "O:Request", kwlist, &resource, &priority))
        return NULL;
    return make_request(type, resource, prioritized ? priority : NULL);
}

static PyObject *request_enter(PyObject *self, PyObject *unused) {
    Py_INCREF(self);
    return self;
}

static PyObject *request_exit(RequestObject *self, PyObject *args) {
    if (release((ResourceObject *) self->resource, (PyObject *) self) < 0) return NULL;
    Py_RETURN_NONE;
}

static PyObject *request_cancel(RequestObject *self, PyObject *unused) {
    if (cancel(self) < 0) return NULL;
    Py_RETURN_NONE;
}

static PyObject *request_get_key(RequestObject *self, void *closure) {
    return Py_BuildValue("(OdK)", self->priority, self->time, self->seq);
}

static int request_traverse(RequestObject *self, visitproc visit, void *arg) {
    Py_VISIT(self->resource);
    Py_VISIT(self->priority);
    return event_traverse(&self->event, visit, arg);
}

static int request_clear(RequestObject *self) {
    Py_CLEAR(self->resource);
    Py_CLEAR(self->priority);
    return event_clear(&self->event);
}

static void request_dealloc(RequestObject *self) {
    PyObject_GC_UnTrack(self);
    request_clear(self);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

static PyMethodDef request_methods[] = {
    {"__enter__", request_enter, METH_NOARGS, NULL},
    {"__exit__", (PyCFunction) request_exit, METH_VARARGS, NULL},
    {"cancel", (PyCFunction) request_cancel, METH_NOARGS,
     "Withdraw a request that has not been granted yet."},
    {NULL}
};

static PyMemberDef request_members[] = {
    {"resource", T_OBJECT, offsetof(RequestObject, resource), READONLY, NULL},
    {NULL}
};

static PyMemberDef priority_request_members[] = {
    {"priority", T_OBJECT, offsetof(RequestObject, priority), READONLY, NULL},
    {"time", T_DOUBLE, offsetof(RequestObject, time), READONLY, NULL},
    {"seq", T_ULONGLONG, offsetof(RequestObject, seq), READONLY, NULL},
    {NULL}
};

static PyGetSetDef priority_request_getset[] = {
    {"key", (getter) request_get_key, NULL, NULL},
    {NULL}
};

static PyTypeObject RequestType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.Request",
    .tp_doc = "A pending claim on a :class:`Resource` slot.",
    .tp_basicsize = sizeof(RequestObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_base = &EventType,
    .tp_new = request_new,
    .tp_init = noop_init,
    .tp_dealloc = (destructor) request_dealloc,
    .tp_traverse = (traverseproc) request_traverse,
    .tp_clear = (inquiry) request_clear,
    .tp_methods = request_methods,
    .tp_members = request_members,
};

static PyTypeObject PriorityRequestType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.PriorityRequest",
    .tp_doc = "Request with a priority; smaller value means earlier service.",
    .tp_basicsize = sizeof(RequestObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_base = &RequestType,
    .tp_new = request_new,
    .tp_members = priority_request_members,
    .tp_getset = priority_request_getset,
};

static PyObject *resource_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"env", "capacity", NULL};
    PyObject *env, *capacity = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O:Resource", kwlist, &env, &capacity))
        return NULL;
    Py_ssize_t slots = 1;
    if (capacity != NULL) {
        slots = PyIndex_Check(capacity) ? PyNumber_AsSsize_t(capacity, NULL) : 0;
        if (slots == -1 && PyErr_Occurred()) return NULL;
    }
    if (slots <= 0) {
        PyErr_Format(SimulationError, "resource capacity must be a positive integer, got %R",
                     capacity);
        return NULL;
    }
    if (check_env(env) < 0) return NULL;
    ResourceObject *self = (ResourceObject *) type->tp_alloc(type, 0);
    if (self == NULL) return NULL;
    Py_INCREF(env);
    self->env = env;
    self->capacity = slots;
    self->prioritized = (char) PyType_IsSubtype(type, &PriorityResourceType);
    self->users = PyList_New(0);
    self->queue = PyList_New(0);
    if (self->users == NULL || self->queue == NULL) Py_CLEAR(self);
    return (PyObject *) self;
}

static PyObject *resource_request(ResourceObject *self, PyObject *unused) {
    return make_request(&RequestType, (PyObject *) self, NULL);
}

static PyObject *priority_resource_request(ResourceObject *self, PyObject *const *args,
                                           Py_ssize_t nargs, PyObject *kwnames) {
    static const char *const names[] = {"priority"};
    PyObject *priority;
    if (parse_args("request", names, 1, 0, args, nargs, kwnames, &priority) < 0) return NULL;
    return make_request(&PriorityRequestType, (PyObject *) self, priority ? priority : zero);
}

static PyObject *resource_release(ResourceObject *self, PyObject *request) {
    if (release(self, request) < 0) return NULL;
    Py_RETURN_NONE;
}

static int resource_traverse(ResourceObject *self, visitproc visit, void *arg) {
    Py_VISIT(self->env);
    Py_VISIT(self->users);
    Py_VISIT(self->queue);
    return 0;
}

static int resource_clear(ResourceObject *self) {
    Py_CLEAR(self->env);
    Py_CLEAR(self->users);
    Py_CLEAR(self->queue);
    return 0;
}

static void resource_dealloc(ResourceObject *self) {
    PyObject_GC_UnTrack(self);
    resource_clear(self);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

static PyObject *resource_hold(ResourceObject *self, PyObject *const *args,
                               Py_ssize_t nargs, PyObject *kwnames);  /* see Hold */

static PyMethodDef resource_methods[] = {
    {"request", (PyCFunction) resource_request, METH_NOARGS, NULL},
    {"hold", (PyCFunction)(void (*)(void)) resource_hold, METH_FASTCALL | METH_KEYWORDS,
     "hold(delay, stretch=None, name='hold'): start a process that holds one\n"
     "slot for ``delay`` once granted (``stretch(delay, now)`` at the grant\n"
     "when given), then releases it and triggers with None."},
    {"release", (PyCFunction) resource_release, METH_O,
     "Free the slot held by ``request`` (no-op if it never got one)."},
    {NULL}
};

static PyMethodDef priority_resource_methods[] = {
    {"request", (PyCFunction)(void (*)(void)) priority_resource_request,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {NULL}
};

static PyMemberDef resource_members[] = {
    {"env", T_OBJECT, offsetof(ResourceObject, env), READONLY, NULL},
    {"capacity", T_PYSSIZET, offsetof(ResourceObject, capacity), READONLY, NULL},
    {"users", T_OBJECT, offsetof(ResourceObject, users), READONLY, NULL},
    {NULL}
};

static PyTypeObject ResourceType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.Resource",
    .tp_doc = "A resource with ``capacity`` slots and a FIFO wait queue.",
    .tp_basicsize = sizeof(ResourceObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = resource_new,
    .tp_dealloc = (destructor) resource_dealloc,
    .tp_traverse = (traverseproc) resource_traverse,
    .tp_clear = (inquiry) resource_clear,
    .tp_methods = resource_methods,
    .tp_members = resource_members,
};

static PyTypeObject PriorityResourceType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.PriorityResource",
    .tp_doc = "A resource whose wait queue is ordered by request priority.",
    .tp_basicsize = sizeof(ResourceObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_base = &ResourceType,
    .tp_methods = priority_resource_methods,
};

/* -- Hold ------------------------------------------------------------- */

/* Resource.hold's process: a seize-advance-release state machine with
   the event order of the generator process
       with resource.request() as slot:
           yield slot
           if stretch is not None: delay = stretch(delay, env.now)
           yield env.timeout(delay)
   -- its init event, the grant, the timeout and its end, each scheduled
   where the generator's would be -- without a generator frame.  The
   end clears resource, request and stretch. */
struct HoldObject {
    ProcessObject process;   /* generator stays NULL */
    PyObject *resource;
    PyObject *request;       /* NULL until the init event seizes a slot */
    PyObject *stretch;       /* NULL or a callable */
    PyObject *delay;
};

/* Ends the hold: the slot (if any) is released first, as the `with`
   block's exit does, then the hold triggers with None or, when exc is
   not NULL, fails with it. */
static int hold_finish(HoldObject *self, PyObject *exc) {
    PyObject *request = self->request;
    self->request = NULL;
    int status = 0;
    if (request != NULL) {
        status = release((ResourceObject *) self->resource, request);
        Py_DECREF(request);
    }
    Py_CLEAR(self->resource);
    Py_CLEAR(self->stretch);
    if (status < 0) return -1;
    return process_finish(&self->process, (EnvObject *) self->process.event.env,
                          exc ? NULL : Py_None, exc);
}

/* The pending Python error fails the hold, as it fails a generator. */
static int hold_raise(HoldObject *self) {
    PyObject *type, *exc, *traceback;
    PyErr_Fetch(&type, &exc, &traceback);
    PyErr_NormalizeException(&type, &exc, &traceback);
    if (traceback != NULL) PyException_SetTraceback(exc, traceback);
    int status = hold_finish(self, exc);
    Py_XDECREF(type);
    Py_XDECREF(exc);
    Py_XDECREF(traceback);
    return status;
}

static int hold_resume(HoldObject *self, EventObject *event) {
    PyObject *env = self->process.event.env;
    if (self->resource == NULL) {  /* only a stray callback reaches an ended hold */
        PyErr_Format(SimulationError, "%R has already ended", self);
        return -1;
    }
    if (self->request == NULL) {  /* the init event: seize */
        self->request = make_request(&RequestType, self->resource, NULL);
        if (self->request == NULL) return hold_raise(self);
        return add_callback((EventObject *) self->request, (PyObject *) self);
    }
    if (HAS_EXC(event)) {  /* thrown into the `with` block */
        event->defused = 1;
        PyObject *exc = Py_NewRef(event->exception);
        int status = hold_finish(self, exc);
        Py_DECREF(exc);
        return status;
    }
    if ((PyObject *) event != self->request) return hold_finish(self, NULL);
    /* granted: advance */
    PyObject *delay = Py_NewRef(self->delay);
    if (self->stretch != NULL) {
        PyObject *now = PyFloat_FromDouble(((EnvObject *) env)->now);
        Py_SETREF(delay, now == NULL ? NULL
                  : PyObject_CallFunctionObjArgs(self->stretch, delay, now, NULL));
        Py_XDECREF(now);
        if (delay == NULL) return hold_raise(self);
    }
    PyObject *timeout = make_timeout(env, delay, Py_None);
    Py_DECREF(delay);
    if (timeout == NULL) return hold_raise(self);
    int status = add_callback((EventObject *) timeout, (PyObject *) self);
    Py_DECREF(timeout);
    return status;
}

static PyObject *resource_hold(ResourceObject *self, PyObject *const *args,
                               Py_ssize_t nargs, PyObject *kwnames) {
    static const char *const names[] = {"delay", "stretch", "name"};
    PyObject *out[3];
    if (parse_args("hold", names, 3, 1, args, nargs, kwnames, out) < 0) return NULL;
    if (self->prioritized) {
        PyErr_SetString(PyExc_TypeError, "a PriorityResource cannot hold; "
                        "request a slot with a priority instead");
        return NULL;
    }
    PyObject *delay = out[0], *stretch = out[1] == Py_None ? NULL : out[1];
    double seconds = PyFloat_AsDouble(delay);
    if (seconds == -1.0 && PyErr_Occurred()) return NULL;
    if (!(seconds >= 0)) {
        PyErr_Format(SimulationError, "negative or NaN timeout delay: %S", delay);
        return NULL;
    }
    if (stretch != NULL && !PyCallable_Check(stretch)) {
        PyErr_Format(PyExc_TypeError, "stretch must be callable, not %R", stretch);
        return NULL;
    }
    int named = out[2] ? PyObject_IsTrue(out[2]) : 0;
    if (named < 0) return NULL;
    HoldObject *hold = (HoldObject *) event_alloc(&HoldType, self->env);
    if (hold == NULL) return NULL;
    hold->resource = Py_NewRef((PyObject *) self);
    hold->stretch = stretch ? Py_NewRef(stretch) : NULL;
    hold->delay = Py_NewRef(delay);
    hold->process.name = Py_NewRef(named ? out[2] : str_hold);
    if (start_process(&hold->process, 1) < 0) {
        Py_DECREF(hold);
        return NULL;
    }
    return (PyObject *) hold;
}

static int hold_traverse(HoldObject *self, visitproc visit, void *arg) {
    Py_VISIT(self->resource);
    Py_VISIT(self->request);
    Py_VISIT(self->stretch);
    Py_VISIT(self->delay);
    return process_traverse(&self->process, visit, arg);
}

static int hold_clear(HoldObject *self) {
    Py_CLEAR(self->resource);
    Py_CLEAR(self->request);
    Py_CLEAR(self->stretch);
    Py_CLEAR(self->delay);
    return process_clear(&self->process);
}

static void hold_dealloc(HoldObject *self) {
    PyObject_GC_UnTrack(self);
    hold_clear(self);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

static PyTypeObject HoldType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.Hold",
    .tp_doc = "The process :meth:`Resource.hold` starts: it holds one slot for a\n"
              "delay and triggers with None once it has released it.",
    .tp_basicsize = sizeof(HoldObject),
#ifdef Py_TPFLAGS_DISALLOW_INSTANTIATION
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_DISALLOW_INSTANTIATION,
#else
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
#endif
    .tp_base = &ProcessType,
    .tp_dealloc = (destructor) hold_dealloc,
    .tp_traverse = (traverseproc) hold_traverse,
    .tp_clear = (inquiry) hold_clear,
};

/* -- Store ------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *env;
    PyObject *capacity;   /* as given */
    PyObject *items, *put_queue, *get_queue;   /* lists */
    double limit;         /* the capacity as a double */
} StoreObject;

/* Serves waiting puts and gets, each pass a put before a get. */
static int store_trigger(StoreObject *self) {
    for (int progressed = 1; progressed;) {
        progressed = 0;
        if (PyList_GET_SIZE(self->put_queue) > 0
                && (double) PyList_GET_SIZE(self->items) < self->limit) {
            PyObject *put = pop_front(self->put_queue);
            int status = put == NULL ? -1
                : PyList_Append(self->items, ((ItemEventObject *) put)->item) < 0 ? -1
                : trigger((EventObject *) put, Py_None, NULL);
            Py_XDECREF(put);
            if (status < 0) return -1;
            progressed = 1;
        }
        if (PyList_GET_SIZE(self->get_queue) > 0 && PyList_GET_SIZE(self->items) > 0) {
            PyObject *get = pop_front(self->get_queue);
            PyObject *item = get == NULL ? NULL : pop_front(self->items);
            int status = item == NULL ? -1 : trigger((EventObject *) get, item, NULL);
            Py_XDECREF(item);
            Py_XDECREF(get);
            if (status < 0) return -1;
            progressed = 1;
        }
    }
    return 0;
}

/* A put (item given) or a get (item NULL) on the store `owner`. */
static PyObject *store_wait(PyTypeObject *type, PyObject *owner, PyObject *item) {
    if (!PyObject_TypeCheck(owner, &StoreType)) {
        PyErr_Format(PyExc_TypeError, "%R is not a Store", owner);
        return NULL;
    }
    StoreObject *store = (StoreObject *) owner;
    ItemEventObject *event = queue_event(type, store->env,
                                         item ? store->put_queue : store->get_queue, item);
    if (event != NULL && store_trigger(store) < 0) Py_CLEAR(event);
    return (PyObject *) event;
}

static PyObject *store_put(PyObject *self, PyObject *item) {
    return store_wait(&StorePutType, self, item);
}

static PyObject *store_get(PyObject *self, PyObject *unused) {
    return store_wait(&StoreGetType, self, NULL);
}

static PyObject *store_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"env", "capacity", NULL};
    PyObject *env, *capacity = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O:Store", kwlist, &env, &capacity))
        return NULL;
    double limit = capacity ? PyFloat_AsDouble(capacity) : Py_HUGE_VAL;
    if (limit == -1.0 && PyErr_Occurred()) return NULL;
    if (!(limit > 0)) {
        PyErr_Format(SimulationError, "store capacity must be positive, got %R", capacity);
        return NULL;
    }
    if (check_env(env) < 0) return NULL;
    StoreObject *self = (StoreObject *) type->tp_alloc(type, 0);
    if (self == NULL) return NULL;
    Py_INCREF(env);
    self->env = env;
    Py_XINCREF(capacity);
    self->capacity = capacity ? capacity : PyFloat_FromDouble(limit);
    self->limit = limit;
    self->items = PyList_New(0);
    self->put_queue = PyList_New(0);
    self->get_queue = PyList_New(0);
    if (self->capacity == NULL || self->items == NULL || self->put_queue == NULL
            || self->get_queue == NULL)
        Py_CLEAR(self);
    return (PyObject *) self;
}

static int store_traverse(StoreObject *self, visitproc visit, void *arg) {
    Py_VISIT(self->env);
    Py_VISIT(self->capacity);
    Py_VISIT(self->items);
    Py_VISIT(self->put_queue);
    Py_VISIT(self->get_queue);
    return 0;
}

static int store_clear(StoreObject *self) {
    Py_CLEAR(self->env);
    Py_CLEAR(self->capacity);
    Py_CLEAR(self->items);
    Py_CLEAR(self->put_queue);
    Py_CLEAR(self->get_queue);
    return 0;
}

static void store_dealloc(StoreObject *self) {
    PyObject_GC_UnTrack(self);
    store_clear(self);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

static PyMethodDef store_methods[] = {
    {"put", store_put, METH_O, NULL},
    {"get", store_get, METH_NOARGS, NULL},
    {NULL}
};

static PyMemberDef store_members[] = {
    {"env", T_OBJECT, offsetof(StoreObject, env), READONLY, NULL},
    {"capacity", T_OBJECT, offsetof(StoreObject, capacity), READONLY, NULL},
    {"items", T_OBJECT, offsetof(StoreObject, items), READONLY, NULL},
    {NULL}
};

static PyTypeObject StoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.Store",
    .tp_doc = "A FIFO item buffer with optional capacity.",
    .tp_basicsize = sizeof(StoreObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = store_new,
    .tp_dealloc = (destructor) store_dealloc,
    .tp_traverse = (traverseproc) store_traverse,
    .tp_clear = (inquiry) store_clear,
    .tp_methods = store_methods,
    .tp_members = store_members,
};

/* -- Container -------------------------------------------------------- */

/* The level moves by the reference's own number arithmetic, so it and
   min_level keep its types (an int container stays int). */
typedef struct {
    PyObject_HEAD
    PyObject *env;
    PyObject *capacity, *level, *min_level;
    PyObject *put_queue, *get_queue;   /* lists */
    double limit;         /* the capacity as a double */
} ContainerObject;

/* Serves waiting puts and gets, each pass a put before a get. */
static int container_trigger(ContainerObject *self) {
    for (int progressed = 1; progressed;) {
        progressed = 0;
        if (PyList_GET_SIZE(self->put_queue) > 0) {
            PyObject *amount = ((ItemEventObject *) PyList_GET_ITEM(self->put_queue, 0))->item;
            PyObject *level = PyNumber_Add(self->level, amount);
            int fits = level == NULL ? -1 : PyObject_RichCompareBool(level, self->capacity, Py_LE);
            PyObject *put = fits > 0 ? pop_front(self->put_queue) : NULL;
            if (put == NULL) {
                Py_XDECREF(level);
                if (fits != 0) return -1;
            } else {
                Py_SETREF(self->level, level);
                int status = trigger((EventObject *) put, Py_None, NULL);
                Py_DECREF(put);
                if (status < 0) return -1;
                progressed = 1;
            }
        }
        if (PyList_GET_SIZE(self->get_queue) > 0) {
            PyObject *amount = ((ItemEventObject *) PyList_GET_ITEM(self->get_queue, 0))->item;
            int enough = PyObject_RichCompareBool(self->level, amount, Py_GE);
            if (enough < 0) return -1;
            if (enough) {
                PyObject *get = pop_front(self->get_queue);
                PyObject *level = get == NULL ? NULL : PyNumber_Subtract(self->level, amount);
                if (level == NULL) {
                    Py_XDECREF(get);
                    return -1;
                }
                Py_SETREF(self->level, level);
                /* min(min_level, level): the level only when strictly lower */
                int lower = PyObject_RichCompareBool(level, self->min_level, Py_LT);
                if (lower > 0) {
                    Py_INCREF(level);
                    Py_SETREF(self->min_level, level);
                }
                int status = lower < 0 ? -1
                    : trigger((EventObject *) get, ((ItemEventObject *) get)->item, NULL);
                Py_DECREF(get);
                if (status < 0) return -1;
                progressed = 1;
            }
        }
    }
    return 0;
}

/* A put or a get of `amount` on the container `owner`; an amount that is
   not finite and positive or exceeds the capacity is refused. */
static PyObject *container_wait(PyTypeObject *type, PyObject *owner, PyObject *amount) {
    if (!PyObject_TypeCheck(owner, &ContainerType)) {
        PyErr_Format(PyExc_TypeError, "%R is not a Container", owner);
        return NULL;
    }
    ContainerObject *container = (ContainerObject *) owner;
    int put = type == &ContainerPutType;
    double value = PyFloat_AsDouble(amount);
    if (value == -1.0 && PyErr_Occurred()) return NULL;
    if (!(value > 0 && value <= container->limit && isfinite(value))) {
        PyErr_Format(SimulationError, "%s amount must be positive, finite and at most the "
                     "capacity, got %R", put ? "put" : "get", amount);
        return NULL;
    }
    ItemEventObject *event = queue_event(type, container->env,
                                         put ? container->put_queue : container->get_queue,
                                         amount);
    if (event != NULL && container_trigger(container) < 0) Py_CLEAR(event);
    return (PyObject *) event;
}

static PyObject *container_put(PyObject *self, PyObject *amount) {
    return container_wait(&ContainerPutType, self, amount);
}

static PyObject *container_get(PyObject *self, PyObject *amount) {
    return container_wait(&ContainerGetType, self, amount);
}

/* A positive capacity and 0 <= init <= capacity, compared as the
   reference compares them; sets the limit. */
static int check_levels(ContainerObject *self) {
    int ok = PyObject_RichCompareBool(self->capacity, zero, Py_GT);
    if (ok == 0)
        PyErr_Format(SimulationError, "container capacity must be positive, got %R",
                     self->capacity);
    if (ok <= 0) return -1;
    ok = PyObject_RichCompareBool(self->level, zero, Py_GE);
    if (ok > 0) ok = PyObject_RichCompareBool(self->level, self->capacity, Py_LE);
    if (ok == 0) PyErr_SetString(SimulationError, "init level out of range");
    if (ok <= 0) return -1;
    self->limit = PyFloat_AsDouble(self->capacity);
    return self->limit == -1.0 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *container_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"env", "capacity", "init", NULL};
    PyObject *env, *capacity = NULL, *init = zero;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|OO:Container", kwlist,
                                     &env, &capacity, &init)
            || check_env(env) < 0)
        return NULL;
    ContainerObject *self = (ContainerObject *) type->tp_alloc(type, 0);
    if (self == NULL) return NULL;
    Py_INCREF(env);
    self->env = env;
    Py_XINCREF(capacity);
    self->capacity = capacity ? capacity : PyFloat_FromDouble(Py_HUGE_VAL);
    Py_INCREF(init);
    self->level = init;
    Py_INCREF(init);
    self->min_level = init;
    self->put_queue = PyList_New(0);
    self->get_queue = PyList_New(0);
    if (self->capacity == NULL || self->put_queue == NULL || self->get_queue == NULL
            || check_levels(self) < 0)
        Py_CLEAR(self);
    return (PyObject *) self;
}

static int container_traverse(ContainerObject *self, visitproc visit, void *arg) {
    Py_VISIT(self->env);
    Py_VISIT(self->capacity);
    Py_VISIT(self->level);
    Py_VISIT(self->min_level);
    Py_VISIT(self->put_queue);
    Py_VISIT(self->get_queue);
    return 0;
}

static int container_clear(ContainerObject *self) {
    Py_CLEAR(self->env);
    Py_CLEAR(self->capacity);
    Py_CLEAR(self->level);
    Py_CLEAR(self->min_level);
    Py_CLEAR(self->put_queue);
    Py_CLEAR(self->get_queue);
    return 0;
}

static void container_dealloc(ContainerObject *self) {
    PyObject_GC_UnTrack(self);
    container_clear(self);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

static PyMethodDef container_methods[] = {
    {"put", container_put, METH_O, NULL},
    {"get", container_get, METH_O, NULL},
    {NULL}
};

static PyMemberDef container_members[] = {
    {"env", T_OBJECT, offsetof(ContainerObject, env), READONLY, NULL},
    {"capacity", T_OBJECT, offsetof(ContainerObject, capacity), READONLY, NULL},
    {"level", T_OBJECT, offsetof(ContainerObject, level), READONLY, NULL},
    {"min_level", T_OBJECT, offsetof(ContainerObject, min_level), READONLY, NULL},
    {NULL}
};

static PyTypeObject ContainerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.Container",
    .tp_doc = "A homogeneous quantity (e.g. credits, bytes of buffer space).",
    .tp_basicsize = sizeof(ContainerObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = container_new,
    .tp_dealloc = (destructor) container_dealloc,
    .tp_traverse = (traverseproc) container_traverse,
    .tp_clear = (inquiry) container_clear,
    .tp_methods = container_methods,
    .tp_members = container_members,
};

/* -- put and get events ----------------------------------------------- */

/* StorePut(store, item), StoreGet(store), ContainerPut(container, amount)
   and ContainerGet(container, amount), as the owner's put and get. */
static PyObject *wait_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    Py_ssize_t count = type == &StoreGetType ? 1 : 2;
    PyObject *owner, *arg = NULL;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_Format(PyExc_TypeError, "%s() takes positional arguments only", type->tp_name);
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, type->tp_name, count, count, &owner, &arg)) return NULL;
    if (type == &StorePutType || type == &StoreGetType) return store_wait(type, owner, arg);
    return container_wait(type, owner, arg);
}

static PyMemberDef store_put_members[] = {
    {"item", T_OBJECT, offsetof(ItemEventObject, item), READONLY, NULL},
    {NULL}
};

static PyMemberDef amount_members[] = {
    {"amount", T_OBJECT, offsetof(ItemEventObject, item), READONLY, NULL},
    {NULL}
};

#define ITEM_EVENT_TYPE(name, members) {                        \
    PyVarObject_HEAD_INIT(NULL, 0)                               \
    .tp_name = "repro.simkit." name,                             \
    .tp_basicsize = sizeof(ItemEventObject),                     \
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,         \
    .tp_base = &EventType,                                       \
    .tp_new = wait_new,                                          \
    .tp_init = noop_init,                                        \
    .tp_dealloc = (destructor) item_event_dealloc,               \
    .tp_traverse = (traverseproc) item_event_traverse,           \
    .tp_clear = (inquiry) item_event_clear,                      \
    .tp_members = members,                                       \
}

static PyTypeObject StorePutType = ITEM_EVENT_TYPE("StorePut", store_put_members);
static PyTypeObject ContainerPutType = ITEM_EVENT_TYPE("ContainerPut", amount_members);
static PyTypeObject ContainerGetType = ITEM_EVENT_TYPE("ContainerGet", amount_members);

static PyTypeObject StoreGetType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simkit.StoreGet",
    .tp_basicsize = sizeof(EventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_base = &EventType,
    .tp_new = wait_new,
    .tp_init = noop_init,
};

/* == fluid kernel ====================================================== */

/* numpy argmin returns the first NaN: NaN sorts below every share. */
static double key_of(double residual, double load) {
    double share = residual / load;
    return isnan(share) ? -INFINITY : share;
}

/* Swap-remove position j from the listed links (ids and share keys) of
   length *n. */
static void drop(int64_t j, int64_t *n, int64_t *live, double *keys, int64_t *slot) {
    int64_t last = --*n;
    slot[live[last]] = j;
    slot[live[j]] = -1;
    live[j] = live[last];
    keys[j] = keys[last];
}

/* The water-fill's state between fills, owned by the network and packed
   by tables() after the solve tables: the last fill's round log, the end
   state it left and an undo record of every round, enough to roll any
   suffix of its rounds back.  Sized for the network's link and group
   tables, so a fill allocates nothing. */
typedef struct {
    int64_t *meta;                /* [4] logged rounds, snapshot width, rounds
                                     the last fill did not recompute, links
                                     listed at its end */
    int64_t *log_links;           /* [links] each logged round's bottleneck */
    double *log_keys;             /* [links] its share key, before the clamp */
    int64_t *log_ends;            /* [links*2] where each round's fixed groups
                                     and its records end */
    int64_t *snapshot;            /* [groups] the logged fill's group counts */
    int64_t *log_groups;          /* [groups] the groups each round fixed */
    double *group_rates;          /* [groups] each group's rate, 0 if unfixed */
    int64_t *records;             /* [groups*6] per link a round updated: the
                                     link, and its previous and next record */
    double *before;               /* [groups*4] the link's residual and load
                                     before that round */
    int64_t *link_state;          /* [links*8] */
    double *link_values;          /* [links*4] */
    unsigned char *flags;         /* [links+groups] */
    int64_t *changes;             /* [1+groups] how many groups admit and retire
                                     listed since the last fill, then their ids */
    unsigned char *listed;        /* [groups] 1 while a group is on that list */
} fill_t;

/* A changed link's share key at the start of a logged round, with the
   fill's count changes applied: its residual and load are the values its
   next record (`at`, -1 for none) saved, else the ones it ended with, or
   its capacity and 0 when the logged fill did not load it; the load then
   moves by the link's count delta.  +inf when that leaves no load. */
static double changed_key(int64_t link, int64_t at, const double *capacity,
                          const int64_t *load_counts, const int64_t *delta,
                          const double *before, const double *residual,
                          const double *load) {
    double res = residual[link], ld = load[link];
    if (load_counts[link] == delta[link]) {
        res = capacity[link];
        ld = 0.0;
    } else if (at >= 0) {
        res = before[2 * at];
        ld = before[2 * at + 1];
    }
    ld += (double) delta[link];
    return ld > 0.0 ? key_of(res, ld) : INFINITY;
}

/* A link stays listed while an unfixed flow crosses it, so the list
   empties in the round where the python loops' unfixed-flow count
   reaches zero.

   Round resume: a link is changed when a group whose count differs from
   the logged fill's crosses it.  The fill finds the first logged round r
   that a changed link can reach -- its bottleneck is changed, or a listed
   changed link sorts below it by (key, link index) -- reading only the
   changed links' records; rolls rounds r.. of the logged fill back;
   moves each changed link's load (and its records of the kept rounds) by
   its count delta; and scans on from round r.  Before round r no changed
   group is fixed, so every link's residual is the logged one and every
   load the logged one plus its delta, bit for bit (DESIGN §8).  The
   caller zeroes meta[0] whenever the capacities change.

   The changed groups are the ones admit and retire listed since the
   last fill (f->changes), so a resumed fill reads no group or link it
   does not recompute; its link flags are cleared on the way out, and
   its rates are f->group_rates, which the network passes as `grates`
   (any other array gets a copy). */
static void waterfill(
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
    /* The listed links (ids and share keys), link -> list position (-1 =
       absent), each round's touched links, the changed links with their
       count deltas, each link's first and last record and a cursor into
       them; each link's residual, load and per-round crossing count; the
       changed-link and fixed-group flags. */
    int64_t *live = f->link_state, *slot = live + nl, *touched = slot + nl;
    int64_t *changed = touched + nl, *delta = changed + nl;
    int64_t *first = delta + nl, *last = first + nl, *cursor = last + nl;
    double *keys = f->link_values, *residual = keys + nl;
    double *load = residual + nl, *counts = load + nl;
    unsigned char *is_changed = f->flags, *gfixed = is_changed + nl;
    int64_t *meta = f->meta, *snapshot = f->snapshot, *ends = f->log_ends;
    int64_t *rec = f->records, *log_groups = f->log_groups;
    double *before = f->before, *rates = f->group_rates;
    int64_t logged = meta[0], width = meta[1], n = meta[3], nchanged = 0;
    int fresh = logged == 0 || width > ng;
    /* Empty the list of changed groups.  Resuming, a listed group whose
       count differs from the snapshot (groups past it count as 0) marks
       its links, adds its count delta to theirs and updates its snapshot
       entry; a fresh fill rewrites the whole snapshot instead. */
    for (int64_t j = 1; j <= f->changes[0]; j++) {
        int64_t g = f->changes[j];
        f->listed[g] = 0;
        int64_t old = g < width ? snapshot[g] : 0;
        if (fresh || g >= ng || gcount[g] == old) continue;
        snapshot[g] = gcount[g];
        for (int64_t c = 0; c < 2; c++) {
            int64_t link = gpaths[2 * g + c];
            if (link < 0) continue;
            if (!is_changed[link]) {
                is_changed[link] = 1;
                delta[link] = 0;
                changed[nchanged++] = link;
            }
            delta[link] += gcount[g] - old;
        }
    }
    f->changes[0] = 0;
    meta[1] = ng;
    int64_t round = 0, ngroups = 0, nrec = 0;
    if (fresh) {
        /* No log: every link starts at its capacity and count. */
        memcpy(snapshot, gcount, ng * sizeof(int64_t));
        memset(is_changed, 0, nl);
        memset(counts, 0, nl * sizeof(double));
        memset(gfixed, 0, ng);
        memset(rates, 0, ng * sizeof(double));
        n = 0;
        for (int64_t i = 0; i < nl; i++) {
            first[i] = last[i] = -1;
            if (load_counts[i] > 0) {
                live[n] = i;
                residual[i] = capacity[i];
                load[i] = (double) load_counts[i];
                keys[n] = key_of(residual[i], load[i]);
                slot[i] = n++;
            } else {
                slot[i] = -1;
            }
        }
    } else {
        memset(gfixed + width, 0, ng - width);
        memset(rates + width, 0, (ng - width) * sizeof(double));
        /* Walk the logged rounds with each changed link's key at their
           start, moving a link's cursor past its records as the rounds
           pass them; next_move is the lowest cursor, so a round before it
           costs two comparisons. */
        double best_key = INFINITY;
        int64_t best_link = -1, next_move = -1;
        for (int64_t c = 0; c < nchanged; c++) {
            int64_t link = changed[c];
            cursor[link] = load_counts[link] == delta[link] ? -1 : first[link];
        }
        for (; round < logged; round++) {
            int64_t bottleneck = f->log_links[round];
            if (is_changed[bottleneck]) break;
            int64_t from = round ? ends[2 * round - 1] : 0;
            if (round == 0 || (next_move >= 0 && next_move < from)) {
                best_key = INFINITY;
                next_move = -1;
                for (int64_t c = 0; c < nchanged; c++) {
                    int64_t link = changed[c], at = cursor[link];
                    while (at >= 0 && at < from) at = rec[3 * at + 2];
                    cursor[link] = at;
                    if (at >= 0 && (next_move < 0 || at < next_move)) next_move = at;
                    double key = changed_key(link, at, capacity, load_counts,
                                             delta, before, residual, load);
                    if (key <= best_key && (key < best_key || link < best_link)) {
                        best_key = key;
                        best_link = link;
                    }
                }
            }
            double share = f->log_keys[round];
            if (best_key <= share && (best_key < share || best_link < bottleneck))
                break;
        }
        /* Roll rounds logged-1 .. round back: every link a round updated
           gets its values before it back, and with the round's bottleneck
           is listed again; the round's groups are unfixed. */
        for (int64_t k = logged - 1; k >= round; k--) {
            int64_t r0 = k ? ends[2 * k - 1] : 0, g0 = k ? ends[2 * k - 2] : 0;
            for (int64_t i = ends[2 * k + 1] - 1; i >= r0; i--) {
                int64_t link = rec[3 * i], prev = rec[3 * i + 1];
                residual[link] = before[2 * i];
                load[link] = before[2 * i + 1];
                last[link] = prev;
                if (prev >= 0) rec[3 * prev + 2] = -1; else first[link] = -1;
                if (slot[link] < 0) { live[n] = link; slot[link] = n++; }
                keys[slot[link]] = key_of(residual[link], load[link]);
            }
            int64_t link = f->log_links[k];
            live[n] = link;
            slot[link] = n;
            keys[n++] = key_of(residual[link], load[link]);
            for (int64_t j = g0; j < ends[2 * k]; j++) {
                gfixed[log_groups[j]] = 0;
                rates[log_groups[j]] = 0.0;
            }
        }
        if (round) {
            ngroups = ends[2 * round - 2];
            nrec = ends[2 * round - 1];
        }
        /* Apply the count deltas at round `round`: loads are integers
           held in doubles, so the sums are exact.  A link the logged fill
           did not load starts at its capacity and count. */
        for (int64_t c = 0; c < nchanged; c++) {
            int64_t link = changed[c];
            if (load_counts[link] == delta[link]) {
                residual[link] = capacity[link];
                load[link] = (double) load_counts[link];
            } else {
                double d = (double) delta[link];
                load[link] += d;
                for (int64_t i = first[link]; i >= 0; i = rec[3 * i + 2])
                    before[2 * i + 1] += d;
            }
            if (load[link] > 0.0) {
                if (slot[link] < 0) { live[n] = link; slot[link] = n++; }
                keys[slot[link]] = key_of(residual[link], load[link]);
            } else if (slot[link] >= 0) {
                drop(slot[link], &n, live, keys, slot);
            }
        }
    }
    int64_t kept = round;
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
        double key = share;
        if (0.0 > share) share = 0.0;              /* == max(share, 0.0) */
        int64_t ntouched = 0, fixed = ngroups;
        for (int64_t k = starts[bottleneck]; k < starts[bottleneck + 1];
             k++) {
            int64_t g = sorted_groups[k];
            if (gfixed[g] || gcount[g] == 0) continue;
            gfixed[g] = 1;
            rates[g] = share;
            log_groups[ngroups++] = g;
            double w = (double) gcount[g];
            for (int64_t c = 0; c < 2; c++) {
                int64_t link = gpaths[2 * g + c];
                if (link < 0) continue;
                if (counts[link] == 0.0) touched[ntouched++] = link;
                counts[link] += w;
            }
        }
        if (ngroups == fixed) break;
        f->log_links[round] = bottleneck;
        f->log_keys[round] = key;
        for (int64_t t = 0; t < ntouched; t++) {
            int64_t link = touched[t];
            double c = counts[link];
            counts[link] = 0.0;
            int64_t j = slot[link];
            /* The bottleneck leaves the list below.  j < 0 would mean a
               populated group crosses an unloaded link, i.e. counts that
               disagree with load_counts: skip rather than write astray. */
            if (link == bottleneck || j < 0) continue;
            int64_t i = nrec++;
            rec[3 * i] = link;
            rec[3 * i + 1] = last[link];
            rec[3 * i + 2] = -1;
            if (last[link] >= 0) rec[3 * last[link] + 2] = i; else first[link] = i;
            last[link] = i;
            before[2 * i] = residual[link];
            before[2 * i + 1] = load[link];
            /* Two rounded ops, exactly like numpy's
               "residual -= share * counts": no FMA (-ffp-contract=off). */
            double sub = share * c;
            residual[link] = residual[link] - sub;
            load[link] = load[link] - c;
            if (load[link] > 0.0) {
                keys[j] = key_of(residual[link], load[link]);
            } else {                               /* share is +inf now */
                drop(j, &n, live, keys, slot);
            }
        }
        ends[2 * round] = ngroups;
        ends[2 * round + 1] = nrec;
        round++;
        drop(slot[bottleneck], &n, live, keys, slot);
    }
    for (int64_t c = 0; c < nchanged; c++) is_changed[changed[c]] = 0;
    if (grates != rates) memcpy(grates, rates, ng * sizeof(double));
    meta[0] = round;
    meta[2] = kept;
    meta[3] = n;
}

/* The network's flow ledger: its arrays' data, in ledger_fields order. */
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
    int64_t *changes;             /* the fill's list of changed groups (fill_t) */
    unsigned char *listed;        /* [groups] */
} ledger_t;

/* Whether advancing rows [0, n) by dt moves any byte: when none moves,
   the advance leaves every row as it is. */
static int moves_any(const ledger_t *t, int64_t n, double dt) {
    for (int64_t i = 0; i < n; i++)
        if (t->rates[i] * dt > 0.0) return 1;
    return 0;
}

/* Row i's share of the byte advance by dt. */
static inline void advance_row(const ledger_t *t, int64_t i, double dt) {
    double moved = t->rates[i] * dt;
    double left = t->remaining[i] - moved;
    t->remaining[i] = (left > 0.0 || isnan(left)) ? left : 0.0;
    if (moved > 0.0) {
        for (int64_t c = 0; c < 2; c++) {
            int64_t link = t->paths[2 * i + c];
            if (link >= 0) t->link_bytes[link] += moved;
        }
    }
}

/* The byte advance of rows [0, n) by dt. */
static void advance_rows(const ledger_t *t, int64_t n, double dt) {
    if (!moves_any(t, n, dt)) return;
    for (int64_t i = 0; i < n; i++) advance_row(t, i, dt);
}

/* Group gid's count moved: list it for the next fill, once. */
static inline void count_moved(const ledger_t *t, int64_t gid) {
    if (t->listed[gid]) return;
    t->listed[gid] = 1;
    t->changes[1 + t->changes[0]++] = gid;
}

/* One arrival: advance rows [0, row) by dt (when positive), then write
   the flow's row -- its path (l1 = -1 for a one-link path), remaining =
   size, rate 0, size, group and live bit -- and count it in its group
   and on its links. */
static void admit(const ledger_t *t, int64_t row, double dt, int64_t l0,
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
    count_moved(t, gid);
    t->load_counts[l0] += 1;
    if (l1 >= 0) t->load_counts[l1] += 1;
}

/* One completion timer: advance by dt (when positive) and retire the
   done live rows, one row at a time: done is remaining <= eps*size + eps,
   or a moving row whose own ETA is below the clock's resolution (now +
   eta <= now).  A retired row is tombstoned, uncounted (group, links)
   and written to t->retired, so those come out ascending; returns their
   count. */
static int64_t retire(const ledger_t *t, int64_t n, double dt, double now,
               double eps) {
    int advance = dt > 0.0 && moves_any(t, n, dt);
    int64_t *out = t->retired, k = 0;
    for (int64_t i = 0; i < n; i++) {
        if (advance) advance_row(t, i, dt);
        double left = t->remaining[i], rate = t->rates[i];
        if (!t->live[i] || !(left <= eps * t->sizes[i] + eps
                             || (rate > 0.0 && now + left / rate <= now)))
            continue;
        out[k++] = i;
        t->rates[i] = 0.0;
        t->live[i] = 0;
        t->group_count[t->gids[i]] -= 1;
        count_moved(t, t->gids[i]);
        for (int64_t c = 0; c < 2; c++) {
            int64_t link = t->paths[2 * i + c];
            if (link >= 0) t->load_counts[link] -= 1;
        }
    }
    return k;
}

/* One re-solve, one row at a time: advance by dt (when positive), give
   every live row its group's rate from grates, and return the minimum
   ETA over the moving rows -- NaN if any is NaN (numpy's min; every live
   row still takes its rate), -1 if no row moves. */
static double settle(const ledger_t *t, int64_t n, double dt, const double *grates) {
    int advance = dt > 0.0 && moves_any(t, n, dt);
    double *rates = t->rates, best = -1.0;
    for (int64_t i = 0; i < n; i++) {
        if (advance) advance_row(t, i, dt);
        if (t->live[i]) rates[i] = grates[t->gids[i]];
        if (!(rates[i] > 0.0) || isnan(best)) continue;
        double e = t->remaining[i] / rates[i];
        if (isnan(e) || best < 0.0 || e < best) best = e;
    }
    return best;
}

/* -- fluid kernel: packed arrays -------------------------------------- */

/* numpy exports int64 as the C type it maps int64 to: long where long
   has 64 bits, else long long. */
#if LONG_MAX == 0x7fffffffffffffffL
#define I64 "l"
#else
#define I64 "q"
#endif

/* What an array's length counts: a pack's extent in each of the first
   three is its shortest such array's, in units of `per` items. */
enum { ROWS, LINKS, GROUPS, FREE };

typedef struct {
    const char *name;
    const char *format;   /* the buffer format numpy exports for dtype */
    const char *dtype;
    int unit;
    Py_ssize_t per;       /* items per unit; for FREE, the minimum length */
} field_t;

/* The ledger_t members, in order. */
static const field_t ledger_fields[] = {
    {"rates", "d", "float64", ROWS, 1},
    {"remaining", "d", "float64", ROWS, 1},
    {"paths", I64, "int64", ROWS, 2},
    {"link_bytes", "d", "float64", LINKS, 1},
    {"sizes", "d", "float64", ROWS, 1},
    {"live", "?", "bool", ROWS, 1},
    {"gids", I64, "int64", ROWS, 1},
    {"group_count", I64, "int64", GROUPS, 1},
    {"load_counts", I64, "int64", LINKS, 1},
    {"retired", I64, "int64", ROWS, 1},
    {"changes", I64, "int64", GROUPS, 1},
    {"listed", "?", "bool", GROUPS, 1},
    {NULL}
};

/* The solve tables, then the fill_t members: the solve_t members, in
   order.  csr, starts and flags are checked against each call. */
typedef struct {
    double *capacity;             /* [links] */
    int64_t *load_counts;         /* [links] flows crossing each link */
    int64_t *gpaths;              /* [groups*2] link ids per group, -1 = none */
    int64_t *gcount;              /* [groups] flows per group */
    int64_t *sorted_groups;       /* CSR payload: groups sorted by link */
    int64_t *starts;              /* [links+1] CSR row starts */
    fill_t fill;
} solve_t;

static const field_t table_fields[] = {
    {"capacity", "d", "float64", LINKS, 1},
    {"load_counts", I64, "int64", LINKS, 1},
    {"group_paths", I64, "int64", GROUPS, 2},
    {"group_count", I64, "int64", GROUPS, 1},
    {"csr", I64, "int64", FREE, 0},
    {"starts", I64, "int64", FREE, 0},
    {"meta", I64, "int64", FREE, 4},
    {"log_links", I64, "int64", LINKS, 1},
    {"log_keys", "d", "float64", LINKS, 1},
    {"log_ends", I64, "int64", LINKS, 2},
    {"snapshot", I64, "int64", GROUPS, 1},
    {"log_groups", I64, "int64", GROUPS, 1},
    {"group_rates", "d", "float64", GROUPS, 1},
    {"records", I64, "int64", GROUPS, 6},
    {"before", "d", "float64", GROUPS, 4},
    {"link_state", I64, "int64", LINKS, 8},
    {"link_values", "d", "float64", LINKS, 4},
    {"flags", "B", "uint8", FREE, 0},
    {"changes", I64, "int64", GROUPS, 1},
    {"listed", "?", "bool", GROUPS, 1},
    {NULL}
};

enum { LEDGER_ARRAYS = 12, TABLE_ARRAYS = 20, STARTS = 5, FLAGS = 17 };

_Static_assert(sizeof(ledger_t) == LEDGER_ARRAYS * sizeof(void *), "ledger_t");
_Static_assert(sizeof(solve_t) == TABLE_ARRAYS * sizeof(void *), "solve_t");

typedef struct {
    PyObject_HEAD
    const field_t *fields;        /* ledger_fields or table_fields */
    Py_ssize_t held;              /* buffer views acquired */
    Py_ssize_t extent[FREE];
    union {
        void *data[TABLE_ARRAYS];
        ledger_t ledger;
        solve_t solve;
    } at;
    Py_buffer view[TABLE_ARRAYS];
} PackObject;

static void pack_dealloc(PackObject *self) {
    for (Py_ssize_t i = 0; i < self->held; i++) PyBuffer_Release(&self->view[i]);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

static PyTypeObject PackType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.Pack",
    .tp_doc = "A fluid network's arrays, as the compiled kernel reads them;\n"
              "made by ledger() or tables().",
    .tp_basicsize = sizeof(PackObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_dealloc = (destructor) pack_dealloc,
};

/* Number of items in a view (C-contiguous, so len / itemsize). */
static Py_ssize_t items(const Py_buffer *view) {
    return view->itemsize ? view->len / view->itemsize : 0;
}

/* Acquire one buffer view per field from the keyword arguments. */
static PyObject *pack(const char *what, const field_t *fields, PyObject *args,
                      PyObject *kwargs) {
    Py_ssize_t count = 0;
    while (fields[count].name != NULL) count++;
    if (PyTuple_GET_SIZE(args) != 0) {
        PyErr_Format(PyExc_TypeError, "%s() takes its arrays by keyword only", what);
        return NULL;
    }
    PackObject *self = PyObject_New(PackObject, &PackType);
    if (self == NULL) return NULL;
    self->fields = fields;
    self->held = 0;
    for (int unit = 0; unit < FREE; unit++) self->extent[unit] = PY_SSIZE_T_MAX;
    for (Py_ssize_t i = 0; i < count; i++) {
        const field_t *field = &fields[i];
        PyObject *array = kwargs ? PyDict_GetItemString(kwargs, field->name) : NULL;
        if (array == NULL) {
            PyErr_Format(PyExc_TypeError, "%s() needs the array '%s'", what, field->name);
            goto error;
        }
        Py_buffer *view = &self->view[i];
        if (PyObject_GetBuffer(array, view,
                               PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE | PyBUF_FORMAT) < 0) {
            PyObject *type, *value, *traceback;
            PyErr_Fetch(&type, &value, &traceback);
            PyErr_NormalizeException(&type, &value, &traceback);
            PyErr_Format(type, "%s() array '%s': %S", what, field->name, value);
            Py_XDECREF(type);
            Py_XDECREF(value);
            Py_XDECREF(traceback);
            goto error;
        }
        self->held++;
        if (view->format == NULL || strcmp(view->format, field->format) != 0) {
            PyErr_Format(PyExc_TypeError, "%s() array '%s' must be %s, not buffer format '%s'",
                         what, field->name, field->dtype, view->format ? view->format : "B");
            goto error;
        }
        Py_ssize_t n = items(view);
        if (field->unit == FREE) {
            if (n < field->per) {
                PyErr_Format(PyExc_ValueError, "%s() array '%s' needs %zd items, has %zd",
                             what, field->name, field->per, n);
                goto error;
            }
        } else if (n / field->per < self->extent[field->unit]) {
            self->extent[field->unit] = n / field->per;
        }
        self->at.data[i] = view->buf;
    }
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) != count) {
        PyErr_Format(PyExc_TypeError, "%s() got an array it does not take", what);
        goto error;
    }
    return (PyObject *) self;
error:
    Py_DECREF(self);
    return NULL;
}

static PyObject *py_ledger(PyObject *module, PyObject *args, PyObject *kwargs) {
    return pack("ledger", ledger_fields, args, kwargs);
}

static PyObject *py_tables(PyObject *module, PyObject *args, PyObject *kwargs) {
    return pack("tables", table_fields, args, kwargs);
}

/* -- fluid kernel: entry points --------------------------------------- */

static int count_is(const char *function, Py_ssize_t nargs, Py_ssize_t want) {
    if (nargs == want) return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 function, want, nargs);
    return -1;
}

static PackObject *unpack(PyObject *obj, const field_t *fields, const char *what) {
    if (Py_IS_TYPE(obj, &PackType) && ((PackObject *) obj)->fields == fields)
        return (PackObject *) obj;
    PyErr_Format(PyExc_TypeError, "expected the packed %s, got %R", what, obj);
    return NULL;
}

/* obj as an integer in [lo, hi). */
static int int_arg(PyObject *obj, const char *name, Py_ssize_t lo, Py_ssize_t hi,
                   int64_t *out) {
    long long value = PyLong_AsLongLong(obj);
    if (value == -1 && PyErr_Occurred()) return -1;
    if (value < lo || value >= hi) {
        PyErr_Format(PyExc_IndexError, "%s %lld is outside [%zd, %zd)", name, value, lo, hi);
        return -1;
    }
    *out = (int64_t) value;
    return 0;
}

static int double_arg(PyObject *obj, double *out) {
    *out = PyFloat_AsDouble(obj);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* A float64 rate array of at least `need` items; release the view after. */
static int rates_arg(PyObject *obj, int writable, Py_ssize_t need, Py_buffer *view) {
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0) return -1;
    if (view->format == NULL || strcmp(view->format, "d") != 0 || items(view) < need) {
        PyErr_Format(PyExc_TypeError, "the group rates must be a float64 array of "
                     "at least %zd items", need);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* advance(ledger, n, dt) */
static PyObject *py_advance(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    PackObject *t;
    int64_t n;
    double dt;
    if (count_is("advance", nargs, 3) < 0
            || (t = unpack(args[0], ledger_fields, "ledger")) == NULL
            || int_arg(args[1], "n", 0, t->extent[ROWS] + 1, &n) < 0
            || double_arg(args[2], &dt) < 0)
        return NULL;
    advance_rows(&t->at.ledger, n, dt);
    Py_RETURN_NONE;
}

/* admit(ledger, row, dt, l0, l1, size, gid) */
static PyObject *py_admit(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    PackObject *t;
    int64_t row, l0, l1, gid;
    double dt, size;
    if (count_is("admit", nargs, 7) < 0
            || (t = unpack(args[0], ledger_fields, "ledger")) == NULL
            || int_arg(args[1], "row", 0, t->extent[ROWS], &row) < 0
            || double_arg(args[2], &dt) < 0
            || int_arg(args[3], "link", 0, t->extent[LINKS], &l0) < 0
            || int_arg(args[4], "link", -1, t->extent[LINKS], &l1) < 0
            || double_arg(args[5], &size) < 0
            || int_arg(args[6], "group", 0, t->extent[GROUPS], &gid) < 0)
        return NULL;
    admit(&t->at.ledger, row, dt, l0, l1, size, gid);
    Py_RETURN_NONE;
}

/* retire(ledger, n, dt, now, eps) -> the number of retired rows */
static PyObject *py_retire(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    PackObject *t;
    int64_t n;
    double dt, now, eps;
    if (count_is("retire", nargs, 5) < 0
            || (t = unpack(args[0], ledger_fields, "ledger")) == NULL
            || int_arg(args[1], "n", 0, t->extent[ROWS] + 1, &n) < 0
            || double_arg(args[2], &dt) < 0
            || double_arg(args[3], &now) < 0
            || double_arg(args[4], &eps) < 0)
        return NULL;
    return PyLong_FromLongLong(retire(&t->at.ledger, n, dt, now, eps));
}

/* settle(ledger, n, dt, grates) -> the earliest ETA, NaN or -1 */
static PyObject *py_settle(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    PackObject *t;
    int64_t n;
    double dt;
    Py_buffer grates;
    if (count_is("settle", nargs, 4) < 0
            || (t = unpack(args[0], ledger_fields, "ledger")) == NULL
            || int_arg(args[1], "n", 0, t->extent[ROWS] + 1, &n) < 0
            || double_arg(args[2], &dt) < 0
            || rates_arg(args[3], 0, 0, &grates) < 0)
        return NULL;
    double eta = settle(&t->at.ledger, n, dt, grates.buf);
    PyBuffer_Release(&grates);
    return PyFloat_FromDouble(eta);
}

/* waterfill(num_links, num_groups, tables, grates) */
static PyObject *py_waterfill(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    PackObject *t;
    int64_t nl, ng;
    Py_buffer grates;
    if (count_is("waterfill", nargs, 4) < 0
            || (t = unpack(args[2], table_fields, "solve tables")) == NULL
            || int_arg(args[0], "num_links", 0,
                       Py_MIN(t->extent[LINKS], items(&t->view[STARTS]) - 1) + 1, &nl) < 0
            || int_arg(args[1], "num_groups", 0, t->extent[GROUPS] + 1, &ng) < 0)
        return NULL;
    if (nl + ng > items(&t->view[FLAGS])) {
        PyErr_SetString(PyExc_IndexError, "the fill's flags are too short for the tables");
        return NULL;
    }
    if (rates_arg(args[3], 1, ng, &grates) < 0) return NULL;
    const solve_t *s = &t->at.solve;
    waterfill(nl, ng, s->capacity, s->load_counts, s->gpaths, s->gcount,
              s->sorted_groups, s->starts, &s->fill, grates.buf);
    PyBuffer_Release(&grates);
    Py_RETURN_NONE;
}

/* == fluid network ===================================================== */

/* The bookkeeping of repro.netsim.fluid.FluidNetwork around the loops
   above: stage, activate, fire and recompute do what the reference's
   Python bodies of the same names do, in the same order, creating the
   same events.  The network's scalar state and flow list live in this type,
   the network's base class, so the entries read them as fields and the
   Python code reads the same names through the members.  The rare steps call
   back into the network's methods: _ledger (a dropped pack), _grow_rows,
   _intern_group, _compact and _ensure_csr (solve tables dropped when a
   link or group was interned).  A flow is this extension's Flow, the
   base of repro.netsim.fluid.Flow, whose fields the entries read and
   write directly. */

/* -- the flow --------------------------------------------------------- */

/* One transfer.  The Python subclass adds the remaining/rate/duration
   views and the repr. */
typedef struct {
    PyObject_HEAD
    PyObject *path, *path_index, *tag;
    PyObject *started_at, *completed_at;  /* None until stamped */
    PyObject *done;               /* the event that succeeds (with None) at the end */
    PyObject *net;                /* the network while the flow holds a row, else None */
    long long id;
    Py_ssize_t row;
    double size, latency, created_at;
    double remaining, rate;       /* authoritative while the flow holds no row */
} FlowObject;

static PyTypeObject FlowType;
static long long flow_ids;

/* The number `obj` if it is finite and non-negative, else ValueError. */
static int amount_arg(const char *name, PyObject *obj, double *out) {
    *out = PyFloat_AsDouble(obj);
    if (*out == -1.0 && PyErr_Occurred()) return -1;
    if (0.0 <= *out && *out < INFINITY) return 0;
    PyErr_Format(PyExc_ValueError, "%s must be finite and non-negative, got %S", name, obj);
    return -1;
}

/* A flow of `type` on the compiled env, with a checked size and latency:
   it is stamped with the creation time and gets its done event. */
static PyObject *make_flow(PyTypeObject *type, PyObject *env, PyObject *path,
                           PyObject *path_index, double amount, double delay, PyObject *tag) {
    PyObject *done = (PyObject *) event_alloc(&EventType, env);
    if (done == NULL) return NULL;
    FlowObject *self = (FlowObject *) type->tp_alloc(type, 0);
    if (self == NULL) {
        Py_DECREF(done);
        return NULL;
    }
    self->id = flow_ids++;
    self->path = Py_NewRef(path);
    self->path_index = Py_NewRef(path_index);
    self->tag = Py_NewRef(tag);
    self->started_at = Py_NewRef(Py_None);
    self->completed_at = Py_NewRef(Py_None);
    self->done = done;
    self->net = Py_NewRef(Py_None);
    self->row = -1;
    self->size = self->remaining = amount;
    self->latency = delay;
    self->created_at = ((EnvObject *) env)->now;
    return (PyObject *) self;
}

/* Flow(env, path, path_index, size, latency, tag=None): checks size and
   latency, stamps created_at and makes the done event. */
static PyObject *flow_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"env", "path", "path_index", "size", "latency", "tag", NULL};
    PyObject *env, *path, *path_index, *size, *latency, *tag = Py_None;
    double amount, delay;
    if (kwds == NULL
            ? !PyArg_UnpackTuple(args, "Flow", 5, 6, &env, &path, &path_index, &size,
                                 &latency, &tag)
            : !PyArg_ParseTupleAndKeywords(args, kwds, "OOOOO|O:Flow", kwlist, &env, &path,
                                           &path_index, &size, &latency, &tag))
        return NULL;
    if (amount_arg("size", size, &amount) < 0 || amount_arg("latency", latency, &delay) < 0)
        return NULL;
    if (!PyObject_TypeCheck(env, &EnvType)) {
        PyErr_Format(PyExc_TypeError, "Flow() needs a compiled-kernel environment, got %R",
                     env);
        return NULL;
    }
    return make_flow(type, env, path, path_index, amount, delay, tag);
}

static int flow_traverse(FlowObject *self, visitproc visit, void *arg) {
    Py_VISIT(self->path);
    Py_VISIT(self->path_index);
    Py_VISIT(self->tag);
    Py_VISIT(self->started_at);
    Py_VISIT(self->completed_at);
    Py_VISIT(self->done);
    Py_VISIT(self->net);
    return 0;
}

static int flow_clear(FlowObject *self) {
    Py_CLEAR(self->path);
    Py_CLEAR(self->path_index);
    Py_CLEAR(self->tag);
    Py_CLEAR(self->started_at);
    Py_CLEAR(self->completed_at);
    Py_CLEAR(self->done);
    Py_CLEAR(self->net);
    return 0;
}

static void flow_dealloc(FlowObject *self) {
    PyObject_GC_UnTrack(self);
    flow_clear(self);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

static PyMemberDef flow_members[] = {
    {"id", T_LONGLONG, offsetof(FlowObject, id), READONLY, NULL},
    {"path", T_OBJECT, offsetof(FlowObject, path), 0, NULL},
    {"path_index", T_OBJECT, offsetof(FlowObject, path_index), 0, NULL},
    {"size", T_DOUBLE, offsetof(FlowObject, size), 0, NULL},
    {"latency", T_DOUBLE, offsetof(FlowObject, latency), 0, NULL},
    {"tag", T_OBJECT, offsetof(FlowObject, tag), 0, NULL},
    {"created_at", T_DOUBLE, offsetof(FlowObject, created_at), 0, NULL},
    {"started_at", T_OBJECT, offsetof(FlowObject, started_at), 0, NULL},
    {"completed_at", T_OBJECT, offsetof(FlowObject, completed_at), 0, NULL},
    {"done", T_OBJECT, offsetof(FlowObject, done), 0, NULL},
    {"_net", T_OBJECT, offsetof(FlowObject, net), 0, NULL},
    {"_row", T_PYSSIZET, offsetof(FlowObject, row), 0, NULL},
    {"_remaining", T_DOUBLE, offsetof(FlowObject, remaining), 0, NULL},
    {"_rate", T_DOUBLE, offsetof(FlowObject, rate), 0, NULL},
    {NULL}
};

static PyTypeObject FlowType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.Flow",
    .tp_doc = "The compiled fields behind netsim.fluid.Flow.",
    .tp_basicsize = sizeof(FlowObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = flow_new,
    .tp_init = noop_init,
    .tp_dealloc = (destructor) flow_dealloc,
    .tp_traverse = (traverseproc) flow_traverse,
    .tp_clear = (inquiry) flow_clear,
    .tp_members = flow_members,
};

/* An entry's flow argument. */
static FlowObject *flow_arg(const char *function, PyObject *obj) {
    if (PyObject_TypeCheck(obj, &FlowType)) return (FlowObject *) obj;
    PyErr_Format(PyExc_TypeError, "%s() needs a compiled-kernel flow, got %R", function, obj);
    return NULL;
}

/* -- the network ------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *env;
    PyObject *active;             /* list: each row's flow, None once retired */
    PyObject *ledger;             /* the packed flow ledger, None when dropped */
    PyObject *tables;             /* the packed solve tables, None when dropped */
    PyObject *grates;             /* float64 array: each group's rate, one per slot */
    PyObject *kernel;             /* the kernel the network runs */
    PyObject *group_of;           /* dict: path index tuple -> group id */
    PyObject *flow_type;          /* the Flow subtype _stage makes */
    Py_ssize_t n, live_count, dead_count, num_links, num_groups;
    long long generation;
    double last_update, total_bytes_completed, epsilon;
    char recompute_pending;
} NetObject;

static PyObject *str_underscore_value, *str_ledger, *str_grow_rows, *str_intern_group,
    *str_compact, *str_ensure_csr, *str_on_timer_event, *str_defer, *str_succeed,
    *str_waterfill_module, *str_run, *str_activate_event, *str_activate, *str_recompute;

static int net_traverse(NetObject *self, visitproc visit, void *arg) {
    Py_VISIT(self->env);
    Py_VISIT(self->active);
    Py_VISIT(self->ledger);
    Py_VISIT(self->tables);
    Py_VISIT(self->grates);
    Py_VISIT(self->kernel);
    Py_VISIT(self->group_of);
    Py_VISIT(self->flow_type);
    return 0;
}

static int net_clear(NetObject *self) {
    Py_CLEAR(self->env);
    Py_CLEAR(self->active);
    Py_CLEAR(self->ledger);
    Py_CLEAR(self->tables);
    Py_CLEAR(self->grates);
    Py_CLEAR(self->kernel);
    Py_CLEAR(self->group_of);
    Py_CLEAR(self->flow_type);
    return 0;
}

static void net_dealloc(NetObject *self) {
    PyObject_GC_UnTrack(self);
    net_clear(self);
    Py_TYPE(self)->tp_free((PyObject *) self);
}

static PyMemberDef net_members[] = {
    {"env", T_OBJECT, offsetof(NetObject, env), 0, NULL},
    {"_active", T_OBJECT, offsetof(NetObject, active), 0, NULL},
    {"_flow_ledger", T_OBJECT, offsetof(NetObject, ledger), 0, NULL},
    {"_solve_tables", T_OBJECT, offsetof(NetObject, tables), 0, NULL},
    {"_grates", T_OBJECT, offsetof(NetObject, grates), 0, NULL},
    {"_kernel_in_use", T_OBJECT, offsetof(NetObject, kernel), 0, NULL},
    {"_group_of", T_OBJECT, offsetof(NetObject, group_of), 0, NULL},
    {"_flow_type", T_OBJECT, offsetof(NetObject, flow_type), 0, NULL},
    {"_n", T_PYSSIZET, offsetof(NetObject, n), 0, NULL},
    {"_live_count", T_PYSSIZET, offsetof(NetObject, live_count), 0, NULL},
    {"_dead_count", T_PYSSIZET, offsetof(NetObject, dead_count), 0, NULL},
    {"_num_links", T_PYSSIZET, offsetof(NetObject, num_links), 0, NULL},
    {"_num_groups", T_PYSSIZET, offsetof(NetObject, num_groups), 0, NULL},
    {"_generation", T_LONGLONG, offsetof(NetObject, generation), 0, NULL},
    {"_last_update", T_DOUBLE, offsetof(NetObject, last_update), 0, NULL},
    {"total_bytes_completed", T_DOUBLE, offsetof(NetObject, total_bytes_completed), 0, NULL},
    {"_epsilon", T_DOUBLE, offsetof(NetObject, epsilon), 0, NULL},
    {"_recompute_pending", T_BOOL, offsetof(NetObject, recompute_pending), 0, NULL},
    {NULL}
};

static PyTypeObject NetType;

/* An entry's network argument, whose environment must be compiled. */
static NetObject *net_arg(const char *function, PyObject *obj) {
    if (!PyObject_TypeCheck(obj, &NetType)) {
        PyErr_Format(PyExc_TypeError, "%s() needs a fluid network, got %R", function, obj);
        return NULL;
    }
    NetObject *net = (NetObject *) obj;
    if (net->env == NULL || !PyObject_TypeCheck(net->env, &EnvType)) {
        PyErr_Format(PyExc_TypeError,
                     "%s() needs a network on a compiled-kernel environment", function);
        return NULL;
    }
    if (net->active == NULL || !PyList_Check(net->active)
            || net->group_of == NULL || !PyDict_Check(net->group_of)) {
        PyErr_Format(PyExc_TypeError, "%s(): the network's flow list or group table "
                     "is not a list or dict", function);
        return NULL;
    }
    return net;
}

static double now_of(const NetObject *net) {
    return ((EnvObject *) net->env)->now;
}

/* Seconds since the last byte update; stamps the update at now. */
static double elapsed(NetObject *net) {
    double now = now_of(net), dt = now - net->last_update;
    net->last_update = now;
    return dt;
}

/* Calls the network's method `name` with up to one argument; -1 if it raised. */
static int call_back(NetObject *net, PyObject *name, PyObject *arg) {
    PyObject *result = arg == NULL
        ? PyObject_CallMethodNoArgs((PyObject *) net, name)
        : PyObject_CallMethodOneArg((PyObject *) net, name, arg);
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

/* The network's packed ledger, which _ledger() packs afresh once dropped
   (a borrowed reference: the network holds the pack). */
static PackObject *net_ledger(NetObject *net) {
    if ((net->ledger == NULL || net->ledger == Py_None)
            && call_back(net, str_ledger, NULL) < 0)
        return NULL;
    return unpack(net->ledger ? net->ledger : Py_None, ledger_fields, "ledger");
}

static int range_check(const char *name, int64_t value, Py_ssize_t lo, Py_ssize_t hi) {
    if (value >= lo && value < hi) return 0;
    PyErr_Format(PyExc_IndexError, "%s %lld is outside [%zd, %zd)", name,
                 (long long) value, lo, hi);
    return -1;
}

/* _schedule_recompute: one re-solve at the end of the instant, deferred
   through the environment's defer_to_instant_end attribute.  The hook
   is the network itself (calling it runs its _recompute, see net_call):
   a deferral allocates nothing, and the environment holds the network
   only until the instant ends. */
static int defer_recompute(NetObject *net) {
    if (net->recompute_pending) return 0;
    net->recompute_pending = 1;
    PyObject *result = PyObject_CallMethodOneArg(net->env, str_defer, (PyObject *) net);
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

/* _finish: the flow's last byte landed at `at`; it leaves the ledger
   with no bytes or rate left, its bytes are counted, and done succeeds
   with None (a done event whose value were the flow would close a
   flow -> done -> flow cycle only the cyclic GC could free). */
static int finish(NetObject *net, FlowObject *flow, PyObject *at) {
    Py_XSETREF(flow->net, Py_NewRef(Py_None));
    flow->remaining = flow->rate = 0.0;
    Py_XSETREF(flow->completed_at, Py_NewRef(at));
    net->total_bytes_completed += flow->size;
    PyObject *done = Py_NewRef(flow->done ? flow->done : Py_None);
    int status;
    if (Py_IS_TYPE(done, &EventType)) {
        status = trigger((EventObject *) done, Py_None, NULL);
    } else {
        PyObject *result = PyObject_CallMethodNoArgs(done, str_succeed);
        status = result == NULL ? -1 : 0;
        Py_XDECREF(result);
    }
    Py_DECREF(done);
    return status;
}

/* The flow's group, interned by the network when its path has none. */
static int group_of(NetObject *net, PyObject *path_index, int64_t *gid) {
    PyObject *group = PyDict_GetItemWithError(net->group_of, path_index);
    if (group != NULL) {
        Py_INCREF(group);
    } else if (PyErr_Occurred()) {
        return -1;
    } else {
        group = PyObject_CallMethodOneArg((PyObject *) net, str_intern_group, path_index);
        if (group == NULL) return -1;
    }
    *gid = PyLong_AsLongLong(group);
    Py_DECREF(group);
    return (*gid == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* A flow that moves bytes takes the next row: the row arrays grow when
   every row is taken, its group is looked up or interned, and admit
   advances the earlier rows and writes the new one. */
static int take_row(NetObject *net, FlowObject *flow) {
    Py_ssize_t row = net->n;
    PackObject *t = net_ledger(net);
    if (t == NULL || (row >= t->extent[ROWS] && call_back(net, str_grow_rows, NULL) < 0))
        return -1;
    PyObject *path_index = flow->path_index;
    Py_ssize_t hops = path_index && PyTuple_Check(path_index) ? PyTuple_GET_SIZE(path_index) : 0;
    int64_t l0 = 0, l1 = -1, gid = 0;
    if (hops < 1 || hops > 2) {
        PyErr_Format(PyExc_TypeError, "a flow's path_index must be a tuple of one "
                     "or two link indices, not %R", path_index ? path_index : Py_None);
        return -1;
    }
    Py_INCREF(path_index);  /* the interning below runs Python code */
    int status = (group_of(net, path_index, &gid) == 0
                  /* Growth and interning drop the pack: fetch it again. */
                  && (t = net_ledger(net)) != NULL
                  && int_arg(PyTuple_GET_ITEM(path_index, 0), "link", 0, t->extent[LINKS],
                             &l0) == 0
                  && (hops == 1 || int_arg(PyTuple_GET_ITEM(path_index, 1), "link", -1,
                                           t->extent[LINKS], &l1) == 0)
                  && range_check("row", row, 0, t->extent[ROWS]) == 0
                  && range_check("group", gid, 0, t->extent[GROUPS]) == 0) ? 0 : -1;
    Py_DECREF(path_index);
    if (status < 0 || PyList_Append(net->active, (PyObject *) flow) < 0) return -1;
    admit(&t->at.ledger, row, elapsed(net), l0, l1, flow->size, gid);
    net->live_count++;
    net->n = row + 1;
    Py_XSETREF(flow->net, Py_NewRef((PyObject *) net));
    flow->row = row;
    return 0;
}

/* activate(net, flow): the flow starts now.  A zero-size or empty-path
   flow finishes at once; any other takes a row.  Either way the
   network's re-solve is deferred to the end of the instant. */
static PyObject *activate(NetObject *net, PyObject *arg) {
    FlowObject *flow = flow_arg("activate", arg);
    if (flow == NULL) return NULL;
    PyObject *now = PyFloat_FromDouble(now_of(net));
    if (now == NULL) return NULL;
    Py_XSETREF(flow->started_at, Py_NewRef(now));
    int moves = PyObject_IsTrue(flow->path ? flow->path : Py_None), status = -1;
    if (moves >= 0) {
        if (flow->size <= 0 || !moves) {
            status = finish(net, flow, now);  /* a local copy or a pure-latency message */
        } else {
            status = take_row(net, flow) < 0 ? -1 : defer_recompute(net);
        }
    }
    Py_DECREF(now);
    if (status < 0) return NULL;
    Py_RETURN_NONE;
}

/* A staged flow's path_index: a tuple of one or two link indices in
   [0, num_links), or an empty one for an empty path. */
static int check_path_index(PyObject *path, PyObject *path_index, Py_ssize_t num_links) {
    Py_ssize_t hops = PyTuple_Check(path_index) ? PyTuple_GET_SIZE(path_index) : -1;
    if (hops == 0) {
        int moves = PyObject_IsTrue(path);
        if (moves <= 0) return moves;
    }
    if (hops < 1 || hops > 2) {
        PyErr_Format(PyExc_TypeError, "a flow's path_index must be a tuple of one "
                     "or two link indices, not %R", path_index);
        return -1;
    }
    int64_t link;
    for (Py_ssize_t i = 0; i < hops; i++)
        if (int_arg(PyTuple_GET_ITEM(path_index, i), "link", 0, num_links, &link) < 0)
            return -1;
    return 0;
}

/* stage(net, flow_type, paths, path_indices, sizes, latencies, tags): the
   flows of one batch, made and started in order as transfer starts one.
   Every input is checked before the first flow is made.  A flow with a
   latency gets a Timeout valued with it, calling the network's
   _activate_event as looked up once per call; any other activates at
   once through the network's _activate, looked up per flow.  Returns
   the flows, a list.  `args` are the five inputs. */
static PyObject *stage(NetObject *net, PyObject *flow_type, PyObject *const *args) {
    static const char *const inputs[] = {
        "paths", "path_indices", "sizes", "latencies", "tags"};
    PyTypeObject *type = (PyTypeObject *) flow_type;
    if (!PyType_Check(flow_type) || !PyType_IsSubtype(type, &FlowType)) {
        PyErr_Format(PyExc_TypeError, "stage() needs a compiled-kernel Flow type, got %R",
                     flow_type);
        return NULL;
    }
    PyObject *seqs[5] = {NULL}, *flows = NULL, *activate_event = NULL;
    PyObject *env = Py_NewRef(net->env);  /* the checked one, whatever Python rebinds */
    double *amounts = NULL;
    Py_ssize_t n = 0;
    for (int k = 0; k < 5; k++) {
        /* Tuples: the activations below run Python code, which must not
           move the items under this loop. */
        if ((seqs[k] = PySequence_Tuple(args[k])) == NULL) goto done;
        if (k == 0) {
            n = PyTuple_GET_SIZE(seqs[0]);
        } else if (PyTuple_GET_SIZE(seqs[k]) != n) {
            PyErr_Format(PyExc_ValueError, "stage() got %zd paths but %zd %s", n,
                         PyTuple_GET_SIZE(seqs[k]), inputs[k]);
            goto done;
        }
    }
    PyObject **paths = &PyTuple_GET_ITEM(seqs[0], 0);
    PyObject **path_indices = &PyTuple_GET_ITEM(seqs[1], 0);
    PyObject **sizes = &PyTuple_GET_ITEM(seqs[2], 0);
    PyObject **latencies = &PyTuple_GET_ITEM(seqs[3], 0);
    PyObject **tags = &PyTuple_GET_ITEM(seqs[4], 0);
    if ((amounts = PyMem_Malloc((2 * n + 1) * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        if (amount_arg("size", sizes[i], &amounts[2 * i]) < 0
                || amount_arg("latency", latencies[i], &amounts[2 * i + 1]) < 0
                || check_path_index(paths[i], path_indices[i], net->num_links) < 0)
            goto done;
    if ((flows = PyList_New(n)) == NULL) goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        double delay = amounts[2 * i + 1];
        PyObject *flow = make_flow(type, env, paths[i], path_indices[i], amounts[2 * i],
                                   delay, tags[i]);
        if (flow == NULL) goto fail;
        PyList_SET_ITEM(flows, i, flow);  /* the list owns the flow */
        if (delay > 0) {
            if (activate_event == NULL
                    && (activate_event = PyObject_GetAttr((PyObject *) net,
                                                          str_activate_event)) == NULL)
                goto fail;
            PyObject *timer = new_timeout(env, delay, flow, NULL);
            int status = timer == NULL ? -1 : add_callback((EventObject *) timer,
                                                           activate_event);
            Py_XDECREF(timer);
            if (status < 0) goto fail;
        } else {
            PyObject *result = PyObject_CallMethodOneArg((PyObject *) net, str_activate,
                                                         flow);
            if (result == NULL) goto fail;
            Py_DECREF(result);
        }
    }
    goto done;
fail:
    Py_CLEAR(flows);
done:
    Py_DECREF(env);
    Py_XDECREF(activate_event);
    PyMem_Free(amounts);
    for (int k = 0; k < 5; k++) Py_XDECREF(seqs[k]);
    return flows;
}

/* The `count` rows retire() wrote to `rows` leave the flow list (None
   marks their rows until the next compaction), the compaction trigger
   runs, and their flows finish at `now` in ascending row order. */
static int finish_retired(NetObject *net, const int64_t *rows, Py_ssize_t n, int64_t count,
                          double now) {
    PyObject *active = net->active;
    if (!PyList_Check(active) || PyList_GET_SIZE(active) < n) {
        PyErr_SetString(PyExc_ValueError, "the network's flow list does not cover its ledger");
        return -1;
    }
    PyObject *finished = PyList_New(count);
    if (finished == NULL) return -1;
    for (int64_t j = 0; j < count; j++) {
        /* The flow list's reference moves to `finished`. */
        PyList_SET_ITEM(finished, j, PyList_GET_ITEM(active, rows[j]));
        Py_INCREF(Py_None);
        PyList_SET_ITEM(active, rows[j], Py_None);
    }
    net->dead_count += count;
    net->live_count -= count;
    int status = 0;
    if (net->live_count == 0) {
        PyObject *empty = PyList_New(0);
        if (empty == NULL) {
            status = -1;
        } else {
            Py_SETREF(net->active, empty);
            net->n = 0;
            net->dead_count = 0;
        }
    } else if (net->dead_count >= 64 && 2 * net->dead_count >= n) {
        status = call_back(net, str_compact, NULL);
    }
    PyObject *at = status == 0 ? PyFloat_FromDouble(now) : NULL;
    for (int64_t j = 0; at != NULL && status == 0 && j < count; j++) {
        FlowObject *flow = flow_arg("fire", PyList_GET_ITEM(finished, j));
        status = flow == NULL ? -1 : finish(net, flow, at);
    }
    Py_XDECREF(at);
    Py_DECREF(finished);
    return at == NULL ? -1 : status;
}

/* 1 when the timer's value is not the network's generation (a newer
   re-solve superseded it), 0 when it is, -1 on error. */
static int stale(NetObject *net, PyObject *event) {
    PyObject *value;
    if (PyObject_TypeCheck(event, &EventType)) {
        value = ((EventObject *) event)->value;
        Py_INCREF(value);
    } else if ((value = PyObject_GetAttr(event, str_underscore_value)) == NULL) {
        return -1;
    }
    PyObject *generation = PyLong_FromLongLong(net->generation);
    int result = generation ? PyObject_RichCompareBool(value, generation, Py_NE) : -1;
    Py_XDECREF(generation);
    Py_DECREF(value);
    return result;
}

/* fire(net, event): one completion timer.  Unless superseded, retire
   moves the bytes up to now and retires the done rows, whose flows leave
   the flow list and finish; then the re-solve is deferred. */
static PyObject *fire(NetObject *net, PyObject *event) {
    int superseded = stale(net, event);
    if (superseded < 0) return NULL;
    if (superseded) Py_RETURN_NONE;
    double dt = elapsed(net), now = net->last_update;
    Py_ssize_t n = net->n;
    if (n) {
        PackObject *t = net_ledger(net);
        if (t == NULL || range_check("n", n, 0, t->extent[ROWS] + 1) < 0) return NULL;
        int64_t count = retire(&t->at.ledger, n, dt, now, net->epsilon);
        if (count && finish_retired(net, t->at.ledger.retired, n, count, now) < 0)
            return NULL;
    }
    if (defer_recompute(net) < 0) return NULL;
    Py_RETURN_NONE;
}

/* The population's group rates: _waterfill.run, as looked up on its
   module now, fills the network's group-rate array from its solve
   tables, which _ensure_csr packs afresh once a link or group interning
   dropped them; then settle reads that array.  *eta is settle's. */
static int fill_and_settle(NetObject *net, double *eta) {
    if ((net->tables == NULL || net->tables == Py_None)
            && call_back(net, str_ensure_csr, NULL) < 0)
        return -1;
    PyObject *module = PyImport_GetModule(str_waterfill_module);
    if (module == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ImportError, "repro.netsim._waterfill is not imported");
        return -1;
    }
    PyObject *run = PyObject_GetAttr(module, str_run);
    Py_DECREF(module);
    if (run == NULL) return -1;
    /* An unset kernel, tables or rate array is a NULL "O": an error. */
    PyObject *result = PyObject_CallFunction(run, "OnnOO", net->kernel, net->num_links,
                                             net->num_groups, net->tables, net->grates);
    Py_DECREF(run);
    if (result == NULL) return -1;
    Py_DECREF(result);
    PackObject *t = net_ledger(net);
    Py_ssize_t n = net->n;
    Py_buffer grates;
    /* Every live row's group is below the ledger's group extent. */
    if (t == NULL || range_check("n", n, 0, t->extent[ROWS] + 1) < 0
            || rates_arg(net->grates ? net->grates : Py_None, 0, t->extent[GROUPS],
                         &grates) < 0)
        return -1;
    *eta = settle(&t->at.ledger, n, elapsed(net), grates.buf);
    PyBuffer_Release(&grates);
    return 0;
}

/* recompute(net): the deferred re-solve.  A water-fill gives each group
   its rate, and the rows move up to now and take it; the generation
   advances; and when a row moves, a Timeout valued with the generation
   is armed for the earliest completion (max(eta, 0.0); NaN is refused),
   calling the network's _on_timer_event as looked up now. */
static PyObject *recompute(NetObject *net) {
    net->recompute_pending = 0;
    double eta = -1.0;
    if (net->n == 0) {
        net->last_update = now_of(net);  /* nothing in flight: only stamps the clock */
    } else if (fill_and_settle(net, &eta) < 0) {
        return NULL;
    }
    net->generation++;
    if (eta < 0.0) Py_RETURN_NONE;  /* no row moves */
    PyObject *generation = PyLong_FromLongLong(net->generation);
    PyObject *timer = generation == NULL ? NULL
        : new_timeout(net->env, 0.0 > eta ? 0.0 : eta, generation, NULL);
    Py_XDECREF(generation);
    if (timer == NULL) return NULL;
    PyObject *callback = PyObject_GetAttr((PyObject *) net, str_on_timer_event);
    int status = callback == NULL ? -1
        : add_callback((EventObject *) timer, callback);
    Py_XDECREF(callback);
    Py_DECREF(timer);
    if (status < 0) return NULL;
    Py_RETURN_NONE;
}

#define FASTCALL(function) (PyCFunction)(void (*)(void)) (function), METH_FASTCALL
#define KEYWORDS(function) (PyCFunction)(void (*)(void)) (function), METH_VARARGS | METH_KEYWORDS

/* The entries, two ways: module functions taking the network first (the
   kernel interface a swapped-in kernel such as the tests' reference
   shares), and the network's own methods, which the network runs while
   its kernel is this module.  A method binds nothing to the network, so
   a finished network is freed by reference counting alone. */
static PyObject *py_activate(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    NetObject *net;
    if (count_is("activate", nargs, 2) < 0 || (net = net_arg("activate", args[0])) == NULL)
        return NULL;
    return activate(net, args[1]);
}

static PyObject *py_stage(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    NetObject *net;
    if (count_is("stage", nargs, 7) < 0 || (net = net_arg("stage", args[0])) == NULL)
        return NULL;
    return stage(net, args[1], args + 2);
}

static PyObject *py_fire(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    NetObject *net;
    if (count_is("fire", nargs, 2) < 0 || (net = net_arg("fire", args[0])) == NULL)
        return NULL;
    return fire(net, args[1]);
}

static PyObject *py_recompute(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    NetObject *net;
    if (count_is("recompute", nargs, 1) < 0 || (net = net_arg("recompute", args[0])) == NULL)
        return NULL;
    return recompute(net);
}

static PyObject *net_activate(PyObject *self, PyObject *flow) {
    NetObject *net = net_arg("activate", self);
    return net == NULL ? NULL : activate(net, flow);
}

static PyObject *net_stage(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    NetObject *net;
    if (count_is("stage", nargs, 5) < 0 || (net = net_arg("stage", self)) == NULL) return NULL;
    return stage(net, net->flow_type ? net->flow_type : Py_None, args);
}

static PyObject *net_fire(PyObject *self, PyObject *event) {
    NetObject *net = net_arg("fire", self);
    return net == NULL ? NULL : fire(net, event);
}

static PyObject *net_recompute(PyObject *self, PyObject *unused) {
    NetObject *net = net_arg("recompute", self);
    return net == NULL ? NULL : recompute(net);
}

/* Calling the network runs its deferred re-solve: its _recompute, as
   looked up now, so a wrap an instance installs is reached. */
static PyObject *net_call(PyObject *self, PyObject *args, PyObject *kwds) {
    if (PyTuple_GET_SIZE(args) || (kwds != NULL && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "a fluid network is called with no arguments");
        return NULL;
    }
    return PyObject_CallMethodNoArgs(self, str_recompute);
}

static PyMethodDef net_methods[] = {
    {"_stage", FASTCALL(net_stage),
     "_stage(paths, path_indices, sizes, latencies, tags) -> flows"},
    {"_activate", (PyCFunction) net_activate, METH_O, "_activate(flow): the flow starts now"},
    {"_fire", (PyCFunction) net_fire, METH_O, "_fire(event): one completion timer"},
    {"_recompute", (PyCFunction) net_recompute, METH_NOARGS,
     "_recompute(): the deferred re-solve"},
    {NULL}
};

static PyTypeObject NetType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.FluidNetwork",
    .tp_doc = "The compiled state behind netsim.fluid.FluidNetwork.",
    .tp_basicsize = sizeof(NetObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_dealloc = (destructor) net_dealloc,
    .tp_traverse = (traverseproc) net_traverse,
    .tp_clear = (inquiry) net_clear,
    .tp_members = net_members,
    .tp_methods = net_methods,
    .tp_call = net_call,
};

/* == module ============================================================ */

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
     "setup(SimulationError, pending): bind the exception class the event\n"
     "kernel raises and the not-yet-triggered sentinel."},
    {"ledger", KEYWORDS(py_ledger),
     "ledger(**arrays): pack a fluid network's flow ledger."},
    {"tables", KEYWORDS(py_tables),
     "tables(**arrays): pack a fluid network's solve tables and fill state."},
    {"advance", FASTCALL(py_advance), "advance(ledger, n, dt)"},
    {"admit", FASTCALL(py_admit), "admit(ledger, row, dt, l0, l1, size, gid)"},
    {"retire", FASTCALL(py_retire), "retire(ledger, n, dt, now, eps) -> rows retired"},
    {"settle", FASTCALL(py_settle), "settle(ledger, n, dt, grates) -> earliest ETA"},
    {"waterfill", FASTCALL(py_waterfill), "waterfill(num_links, num_groups, tables, grates)"},
    {"activate", FASTCALL(py_activate), "activate(net, flow): the flow starts now"},
    {"stage", FASTCALL(py_stage),
     "stage(net, flow_type, paths, path_indices, sizes, latencies, tags) -> flows"},
    {"fire", FASTCALL(py_fire), "fire(net, event): one completion timer"},
    {"recompute", FASTCALL(py_recompute), "recompute(net): the deferred re-solve"},
    {NULL}
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_ckernel", NULL, -1, module_methods,
};

/* The attribute names the two cores look up, and a hold's default
   name, interned once. */
static const struct {
    PyObject **slot;
    const char *name;
} interned[] = {
    {&str_send, "send"}, {&str_throw, "throw"}, {&str_name, "__name__"},
    {&str_now, "now"}, {&str_value, "value"}, {&str_hold, "hold"},
    {&str_underscore_value, "_value"},
    {&str_ledger, "_ledger"}, {&str_grow_rows, "_grow_rows"},
    {&str_intern_group, "_intern_group"}, {&str_compact, "_compact"},
    {&str_ensure_csr, "_ensure_csr"}, {&str_on_timer_event, "_on_timer_event"},
    {&str_activate_event, "_activate_event"}, {&str_activate, "_activate"},
    {&str_recompute, "_recompute"},
    {&str_defer, "defer_to_instant_end"}, {&str_succeed, "succeed"},
    {&str_waterfill_module, "repro.netsim._waterfill"}, {&str_run, "run"},
};

PyMODINIT_FUNC PyInit__ckernel(void) {
    for (size_t i = 0; i < sizeof(interned) / sizeof(interned[0]); i++)
        if ((*interned[i].slot = PyUnicode_InternFromString(interned[i].name)) == NULL)
            return NULL;
    if ((zero = PyFloat_FromDouble(0.0)) == NULL) return NULL;
    /* Exported under their tp_name's last part; PackType and HoldType stay
       private (Resource.hold makes a hold). */
    PyTypeObject *types[] = {
        &EventType, &TimeoutType, &ProcessType, &EnvType, &ConditionType, &AllOfType,
        &AnyOfType, &RequestType, &PriorityRequestType, &ResourceType, &PriorityResourceType,
        &StorePutType, &StoreGetType, &StoreType, &ContainerPutType, &ContainerGetType,
        &ContainerType, &FlowType, &NetType,
    };
    const int count = sizeof(types) / sizeof(types[0]);
    if (PyType_Ready(&PackType) < 0) return NULL;
    for (int i = 0; i < count; i++)
        if (PyType_Ready(types[i]) < 0) return NULL;
    if (PyType_Ready(&HoldType) < 0) return NULL;
    PyObject *module = PyModule_Create(&module_def);
    if (module == NULL) return NULL;
    for (int i = 0; i < count; i++) {
        const char *name = strrchr(types[i]->tp_name, '.') + 1;
        Py_INCREF(types[i]);
        if (PyModule_AddObject(module, name, (PyObject *) types[i]) < 0) {
            Py_DECREF(types[i]);
            Py_DECREF(module);
            return NULL;
        }
    }
    return module;
}
