/* C core for the discrete-event engine (REPRO_ENGINE=compiled).
 *
 * Implements the same contract as repro.sim.engine.BatchedEngine --
 * events ordered by (time, insertion seq), FIFO among same-tick events,
 * lazy O(1) cancellation, identical watchdog semantics -- as a binary
 * heap of flat C structs.  Steady-state scheduling allocates *nothing*
 * for the common <=2-argument events: the arguments are stored inline
 * in the heap entry and fired via vectorcall, so only 3+-arg events pay
 * for an args tuple.
 *
 * The type is deliberately minimal: hot paths (post / post_at /
 * schedule / _drain) live here, cold paths (stall digests, the sampled
 * run loop) live in the Python subclass in repro/sim/_engine_compiled.py.
 * Build is on demand via repro/sim/_engine_build.py; the pure-Python
 * engine is the automatic fallback, so this file is an optimization,
 * never a requirement.
 *
 * Cancellation protocol: handle-bearing events point at their EventView
 * handle, whose `dead` flag flips when the event is cancelled (keeping
 * the live counter exact) or consumed by the drain loop -- which is
 * what makes a late cancel() a no-op, mirroring the
 * record-neutralization trick of the pure-Python batched engine.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

typedef struct {
    long long time;
    long long seq;
    PyObject *cb;
    /* nargs in {0,1,2}: arguments inline in a0/a1 (a0 and a1 MUST stay
     * adjacent -- the drain loop vectorcalls &a0 as a 2-slot array).
     * nargs == -1: a0 is a regular args tuple, a1 is NULL. */
    PyObject *a0;
    PyObject *a1;
    Py_ssize_t nargs;
    PyObject *guard; /* NULL for post(); the EventView for schedule() */
} Entry;

typedef struct {
    PyObject_HEAD
    long long now;
    long long seq;
    long long events_executed;
    long long live;
    Entry *heap;
    Py_ssize_t len;
    Py_ssize_t cap;
} EngineCore;

/* Cancellable handle returned by schedule(); the C-side twin of the
 * pure-Python Event view.  Owns its own references to the callback and
 * inline args (they stay readable after the event fires) and doubles
 * as the heap entry's cancellation guard via the `dead` flag. */
typedef struct {
    PyObject_HEAD
    PyObject *engine;   /* EngineCore that queued the event */
    PyObject *cb;
    PyObject *a0;
    PyObject *a1;
    Py_ssize_t nargs;   /* same encoding as Entry */
    long long time;
    char cancelled;     /* user-visible cancel() flag (sticky) */
    char dead;          /* will not fire: cancelled or already consumed */
} EventView;

static PyTypeObject EventViewType; /* forward */

static inline int
entry_less(const Entry *a, const Entry *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    return a->seq < b->seq;
}

static void
entry_release(Entry *e)
{
    Py_XDECREF(e->cb);
    Py_XDECREF(e->a0);
    Py_XDECREF(e->a1);
    Py_XDECREF(e->guard);
    e->cb = e->a0 = e->a1 = e->guard = NULL;
}

/* Fire the entry's callback with its (inline or tuple) arguments. */
static inline PyObject *
entry_call(Entry *e)
{
    if (e->nargs >= 0)
        return PyObject_Vectorcall(e->cb, &e->a0, (size_t)e->nargs, NULL);
    return PyObject_Vectorcall(e->cb, &PyTuple_GET_ITEM(e->a0, 0),
                               (size_t)PyTuple_GET_SIZE(e->a0), NULL);
}

/* Build an args tuple from an entry-style (a0, a1, nargs) triple. */
static PyObject *
args_as_tuple(PyObject *a0, PyObject *a1, Py_ssize_t nargs)
{
    if (nargs == -1) {
        Py_INCREF(a0);
        return a0;
    }
    PyObject *tup = PyTuple_New(nargs);
    if (tup == NULL)
        return NULL;
    if (nargs > 0) {
        Py_INCREF(a0);
        PyTuple_SET_ITEM(tup, 0, a0);
    }
    if (nargs > 1) {
        Py_INCREF(a1);
        PyTuple_SET_ITEM(tup, 1, a1);
    }
    return tup;
}

/* Capture a FASTCALL argument tail as (a0, a1, nargs): inline (new
 * refs) for <=2 arguments, one tuple otherwise.  Returns -1 on error. */
static int
pack_args(PyObject *const *args, Py_ssize_t n,
          PyObject **a0, PyObject **a1, Py_ssize_t *nargs)
{
    if (n <= 2) {
        *nargs = n;
        *a0 = NULL;
        *a1 = NULL;
        if (n > 0) {
            Py_INCREF(args[0]);
            *a0 = args[0];
        }
        if (n > 1) {
            Py_INCREF(args[1]);
            *a1 = args[1];
        }
        return 0;
    }
    PyObject *tup = PyTuple_New(n);
    if (tup == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = args[i];
        Py_INCREF(item);
        PyTuple_SET_ITEM(tup, i, item);
    }
    *nargs = -1;
    *a0 = tup;
    *a1 = NULL;
    return 0;
}

static int
heap_reserve(EngineCore *self)
{
    if (self->len < self->cap)
        return 0;
    Py_ssize_t cap = self->cap ? self->cap * 2 : 64;
    Entry *heap = PyMem_Realloc(self->heap, (size_t)cap * sizeof(Entry));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = heap;
    self->cap = cap;
    return 0;
}

static void
sift_up(Entry *heap, Py_ssize_t pos)
{
    Entry item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_less(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static void
sift_down(Entry *heap, Py_ssize_t len, Py_ssize_t pos)
{
    Entry item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= len)
            break;
        if (child + 1 < len && entry_less(&heap[child + 1], &heap[child]))
            child += 1;
        if (!entry_less(&heap[child], &item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* Push an entry.  Steals references to a0/a1/guard; increfs cb. */
static int
core_push(EngineCore *self, long long time, PyObject *cb, PyObject *a0,
          PyObject *a1, Py_ssize_t nargs, PyObject *guard)
{
    if (heap_reserve(self) < 0) {
        Py_XDECREF(a0);
        Py_XDECREF(a1);
        Py_XDECREF(guard);
        return -1;
    }
    Entry *e = &self->heap[self->len];
    e->time = time;
    e->seq = self->seq++;
    Py_INCREF(cb);
    e->cb = cb;
    e->a0 = a0;
    e->a1 = a1;
    e->nargs = nargs;
    e->guard = guard;
    sift_up(self->heap, self->len++);
    self->live++;
    return 0;
}

/* Pop the minimum entry into *out (ownership transferred to caller). */
static void
core_pop(EngineCore *self, Entry *out)
{
    *out = self->heap[0];
    self->len--;
    if (self->len > 0) {
        self->heap[0] = self->heap[self->len];
        sift_down(self->heap, self->len, 0);
    }
}

static PyObject *
core_post(EngineCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "post(delay, callback, *args) takes at least 2 arguments");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyErr_Format(PyExc_ValueError,
                     "cannot schedule into the past (delay=%lld)", delay);
        return NULL;
    }
    PyObject *a0, *a1;
    Py_ssize_t n;
    if (pack_args(args + 2, nargs - 2, &a0, &a1, &n) < 0)
        return NULL;
    if (core_push(self, self->now + delay, args[1], a0, a1, n, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
core_post_at(EngineCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "post_at(time, callback, *args) takes at least 2 arguments");
        return NULL;
    }
    long long time = PyLong_AsLongLong(args[0]);
    if (time == -1 && PyErr_Occurred())
        return NULL;
    if (time < self->now) {
        PyErr_Format(PyExc_ValueError,
                     "cannot schedule into the past (t=%lld < now=%lld)",
                     time, self->now);
        return NULL;
    }
    PyObject *a0, *a1;
    Py_ssize_t n;
    if (pack_args(args + 2, nargs - 2, &a0, &a1, &n) < 0)
        return NULL;
    if (core_push(self, time, args[1], a0, a1, n, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* schedule(delay, callback, *args) -> EventView.
 * Handle-bearing sibling of post(): one C call builds the heap entry
 * and the returned handle (the handle IS the cancellation guard), so
 * cancel-heavy churn allocates exactly one object per event. */
static PyObject *
core_schedule(EngineCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule(delay, callback, *args) takes at least 2 arguments");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyErr_Format(PyExc_ValueError,
                     "cannot schedule into the past (delay=%lld)", delay);
        return NULL;
    }
    PyObject *a0, *a1;
    Py_ssize_t n;
    if (pack_args(args + 2, nargs - 2, &a0, &a1, &n) < 0)
        return NULL;
    EventView *ev = PyObject_GC_New(EventView, &EventViewType);
    if (ev == NULL) {
        Py_XDECREF(a0);
        Py_XDECREF(a1);
        return NULL;
    }
    Py_INCREF(self);
    ev->engine = (PyObject *)self;
    Py_INCREF(args[1]);
    ev->cb = args[1];
    Py_XINCREF(a0);
    ev->a0 = a0;
    Py_XINCREF(a1);
    ev->a1 = a1;
    ev->nargs = n;
    ev->time = self->now + delay;
    ev->cancelled = 0;
    ev->dead = 0;
    PyObject_GC_Track((PyObject *)ev);
    Py_INCREF(ev); /* the heap entry's guard ref (stolen by core_push) */
    if (core_push(self, ev->time, args[1], a0, a1, n,
                  (PyObject *)ev) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return (PyObject *)ev;
}

/* _drain(until, budget) -> 0 (drained or hit `until`) | 1 (budget hit).
 * until < 0 means unbounded; budget < 0 means unbounded.  The executed
 * count is folded into events_executed on every exit path so watchdog
 * digests and callback exceptions always observe exact counters. */
static PyObject *
core_drain(EngineCore *self, PyObject *args)
{
    long long until, budget;
    if (!PyArg_ParseTuple(args, "LL:_drain", &until, &budget))
        return NULL;
    long long executed = 0;
    while (self->len > 0) {
        if (until >= 0 && self->heap[0].time > until) {
            self->now = until;
            break;
        }
        if (budget >= 0 && executed >= budget) {
            self->events_executed += executed;
            return PyLong_FromLong(1);
        }
        Entry e;
        core_pop(self, &e);
        if (e.guard != NULL) {
            EventView *ev = (EventView *)e.guard;
            if (ev->dead) {
                entry_release(&e); /* cancelled: skip silently */
                continue;
            }
            /* Consume-mark before the call so a reentrant cancel of
             * the firing event cannot double-decrement `live`. */
            ev->dead = 1;
        }
        self->now = e.time;
        self->live--;
        PyObject *res = entry_call(&e);
        entry_release(&e);
        if (res == NULL) {
            self->events_executed += executed;
            return NULL;
        }
        Py_DECREF(res);
        executed++;
    }
    self->events_executed += executed;
    return PyLong_FromLong(0);
}

/* _peek_time() -> time of the next queued event (queue must be non-empty). */
static PyObject *
core_peek_time(EngineCore *self, PyObject *Py_UNUSED(ignored))
{
    if (self->len == 0) {
        PyErr_SetString(PyExc_IndexError, "peek on an empty event queue");
        return NULL;
    }
    return PyLong_FromLongLong(self->heap[0].time);
}

/* _pop_live() -> None (popped a cancelled event) | (time, cb, args).
 * Advances `now` and consume-marks the guard exactly like _drain; used
 * by the Python-level sampled run loop. */
static PyObject *
core_pop_live(EngineCore *self, PyObject *Py_UNUSED(ignored))
{
    if (self->len == 0) {
        PyErr_SetString(PyExc_IndexError, "pop on an empty event queue");
        return NULL;
    }
    Entry e;
    core_pop(self, &e);
    if (e.guard != NULL) {
        EventView *ev = (EventView *)e.guard;
        if (ev->dead) {
            entry_release(&e);
            Py_RETURN_NONE;
        }
        ev->dead = 1;
    }
    self->now = e.time;
    self->live--;
    PyObject *tup = args_as_tuple(e.a0, e.a1, e.nargs);
    if (tup == NULL) {
        entry_release(&e);
        return NULL;
    }
    PyObject *t = PyLong_FromLongLong(e.time);
    if (t == NULL) {
        Py_DECREF(tup);
        entry_release(&e);
        return NULL;
    }
    PyObject *out = PyTuple_New(3);
    if (out == NULL) {
        Py_DECREF(t);
        Py_DECREF(tup);
        entry_release(&e);
        return NULL;
    }
    PyTuple_SET_ITEM(out, 0, t);
    Py_INCREF(e.cb);
    PyTuple_SET_ITEM(out, 1, e.cb);
    PyTuple_SET_ITEM(out, 2, tup);
    entry_release(&e);
    return out;
}

/* _items() -> [(time, seq, callback, live), ...] in heap-array order;
 * the stall digest sorts by (time, seq) itself.  Cold path. */
static PyObject *
core_items(EngineCore *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(self->len);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->len; i++) {
        Entry *e = &self->heap[i];
        int alive = (e->guard == NULL
                     || !((EventView *)e->guard)->dead);
        PyObject *item = Py_BuildValue("(LLON)", e->time, e->seq, e->cb,
                                       PyBool_FromLong(alive));
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, item);
    }
    return out;
}

static PyObject *
core_pending(EngineCore *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->len);
}

static PyObject *
core_pending_live(EngineCore *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->live);
}

static int
core_traverse(EngineCore *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->len; i++) {
        Py_VISIT(self->heap[i].cb);
        Py_VISIT(self->heap[i].a0);
        Py_VISIT(self->heap[i].a1);
        Py_VISIT(self->heap[i].guard);
    }
    return 0;
}

static int
core_clear(EngineCore *self)
{
    Py_ssize_t len = self->len;
    self->len = 0;
    for (Py_ssize_t i = 0; i < len; i++)
        entry_release(&self->heap[i]);
    return 0;
}

static void
core_dealloc(EngineCore *self)
{
    PyObject_GC_UnTrack(self);
    core_clear(self);
    PyMem_Free(self->heap);
    self->heap = NULL;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
event_cancel(EventView *self, PyObject *Py_UNUSED(ignored))
{
    if (self->cancelled)
        Py_RETURN_NONE; /* idempotent */
    self->cancelled = 1;
    if (!self->dead) {
        self->dead = 1;
        ((EngineCore *)self->engine)->live--;
    }
    Py_RETURN_NONE;
}

static PyObject *
event_get_cancelled(EventView *self, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(self->cancelled);
}

static PyObject *
event_get_args(EventView *self, void *Py_UNUSED(closure))
{
    return args_as_tuple(self->a0, self->a1, self->nargs);
}

static int
event_traverse(EventView *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->cb);
    Py_VISIT(self->a0);
    Py_VISIT(self->a1);
    return 0;
}

static int
event_clear(EventView *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->cb);
    Py_CLEAR(self->a0);
    Py_CLEAR(self->a1);
    return 0;
}

static void
event_dealloc(EventView *self)
{
    PyObject_GC_UnTrack(self);
    event_clear(self);
    PyObject_GC_Del(self);
}

static PyMethodDef event_methods[] = {
    {"cancel", (PyCFunction)event_cancel, METH_NOARGS,
     "Mark the event so the engine skips it when its tick drains."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef event_members[] = {
    {"time", T_LONGLONG, offsetof(EventView, time), READONLY,
     "Absolute tick the event fires at."},
    {"callback", T_OBJECT_EX, offsetof(EventView, cb), READONLY,
     "The scheduled callable (readable even after the event fires)."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef event_getset[] = {
    {"cancelled", (getter)event_get_cancelled, NULL,
     "True once cancel() has been called (even post-fire).", NULL},
    {"args", (getter)event_get_args, NULL,
     "Positional arguments the callback will receive.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject EventViewType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_engine_core.EventView",
    .tp_basicsize = sizeof(EventView),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Cancellable handle over an event queued in the C core.",
    .tp_dealloc = (destructor)event_dealloc,
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear,
    .tp_methods = event_methods,
    .tp_members = event_members,
    .tp_getset = event_getset,
};

static PyMethodDef core_methods[] = {
    {"post", (PyCFunction)(void (*)(void))core_post, METH_FASTCALL,
     "post(delay, callback, *args)\n--\n\n"
     "Schedule callback(*args) in `delay` ticks; no handle (hot path)."},
    {"post_at", (PyCFunction)(void (*)(void))core_post_at, METH_FASTCALL,
     "post_at(time, callback, *args)\n--\n\n"
     "Schedule callback(*args) at absolute tick `time`; no handle."},
    {"schedule", (PyCFunction)(void (*)(void))core_schedule, METH_FASTCALL,
     "schedule(delay, callback, *args) -> EventView\n--\n\n"
     "Schedule callback(*args) in `delay` ticks; returns a cancellable\n"
     "handle with the same facade contract as the pure-Python Event."},
    {"_drain", (PyCFunction)core_drain, METH_VARARGS,
     "_drain(until, budget) -> status\n--\n\n"
     "Run the event loop; 0 = drained/until, 1 = budget exhausted."},
    {"_peek_time", (PyCFunction)core_peek_time, METH_NOARGS,
     "Time of the next queued event."},
    {"_pop_live", (PyCFunction)core_pop_live, METH_NOARGS,
     "Pop one event; None if it was cancelled, else (time, cb, args)."},
    {"_items", (PyCFunction)core_items, METH_NOARGS,
     "Snapshot of queued events as (time, seq, callback, live) tuples."},
    {"pending", (PyCFunction)core_pending, METH_NOARGS,
     "Number of events still in the queue (including cancelled)."},
    {"pending_live", (PyCFunction)core_pending_live, METH_NOARGS,
     "Number of queued events that will actually fire (O(1))."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef core_members[] = {
    {"now", T_LONGLONG, offsetof(EngineCore, now), 0,
     "Current simulation time in ticks."},
    {"events_executed", T_LONGLONG, offsetof(EngineCore, events_executed), 0,
     "Total events executed across all run() calls."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject EngineCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_engine_core.EngineCore",
    .tp_basicsize = sizeof(EngineCore),
    .tp_flags = (Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE
                 | Py_TPFLAGS_HAVE_GC),
    .tp_doc = "C event-heap core behind repro.sim CompiledEngine.",
    .tp_new = PyType_GenericNew,
    .tp_dealloc = (destructor)core_dealloc,
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear,
    .tp_methods = core_methods,
    .tp_members = core_members,
};

static PyModuleDef coremodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_repro_engine_core",
    .m_doc = "On-demand-compiled event-heap core for repro.sim.engine.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__repro_engine_core(void)
{
    if (PyType_Ready(&EngineCoreType) < 0)
        return NULL;
    if (PyType_Ready(&EventViewType) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&coremodule);
    if (mod == NULL)
        return NULL;
    Py_INCREF(&EngineCoreType);
    if (PyModule_AddObject(mod, "EngineCore",
                           (PyObject *)&EngineCoreType) < 0) {
        Py_DECREF(&EngineCoreType);
        Py_DECREF(mod);
        return NULL;
    }
    Py_INCREF(&EventViewType);
    if (PyModule_AddObject(mod, "EventView",
                           (PyObject *)&EventViewType) < 0) {
        Py_DECREF(&EventViewType);
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
