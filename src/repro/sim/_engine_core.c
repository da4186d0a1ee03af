/* C core for the discrete-event engine (REPRO_ENGINE=compiled).
 *
 * Implements the same contract as repro.sim.engine.BatchedEngine --
 * events ordered by (time, insertion seq), FIFO among same-tick events,
 * identical watchdog semantics -- as a binary heap of flat C structs.
 * Steady-state scheduling allocates *nothing* for the common
 * <=2-argument events: the arguments are stored inline in the heap
 * entry and fired via vectorcall, so only 3+-arg events pay for an
 * args tuple.
 *
 * The type is deliberately minimal: hot paths (post / post_at /
 * _drain) live here, cold paths (stall digests, the sampled run loop)
 * live in the Python subclass in repro/sim/_engine_compiled.py.  Build
 * is on demand via repro/sim/_engine_build.py; the pure-Python engine
 * is the automatic fallback, so this file is an optimization, never a
 * requirement.
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
} Entry;

typedef struct {
    PyObject_HEAD
    long long now;
    long long seq;
    long long events_executed;
    Entry *heap;
    Py_ssize_t len;
    Py_ssize_t cap;
} EngineCore;

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
    e->cb = e->a0 = e->a1 = NULL;
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

/* Push an entry.  Steals references to a0/a1; increfs cb. */
static int
core_push(EngineCore *self, long long time, PyObject *cb, PyObject *a0,
          PyObject *a1, Py_ssize_t nargs)
{
    if (heap_reserve(self) < 0) {
        Py_XDECREF(a0);
        Py_XDECREF(a1);
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
    sift_up(self->heap, self->len++);
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
    if (core_push(self, self->now + delay, args[1], a0, a1, n) < 0)
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
    if (core_push(self, time, args[1], a0, a1, n) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* _drain(budget) -> 0 (queue drained) | 1 (budget hit with work queued).
 * The caller validates budget >= 0.  The executed count is folded into
 * events_executed on every exit path so watchdog digests and callback
 * exceptions always observe exact counters. */
static PyObject *
core_drain(EngineCore *self, PyObject *arg)
{
    long long budget = PyLong_AsLongLong(arg);
    if (budget == -1 && PyErr_Occurred())
        return NULL;
    long long executed = 0;
    while (self->len > 0) {
        if (executed >= budget) {
            self->events_executed += executed;
            return PyLong_FromLong(1);
        }
        Entry e;
        core_pop(self, &e);
        self->now = e.time;
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

/* _pop() -> (time, cb, args) of the next event, advancing `now` like
 * _drain; used by the Python-level sampled run loop. */
static PyObject *
core_pop_next(EngineCore *self, PyObject *Py_UNUSED(ignored))
{
    if (self->len == 0) {
        PyErr_SetString(PyExc_IndexError, "pop on an empty event queue");
        return NULL;
    }
    Entry e;
    core_pop(self, &e);
    self->now = e.time;
    PyObject *tup = args_as_tuple(e.a0, e.a1, e.nargs);
    PyObject *out = (tup == NULL ? NULL
                     : Py_BuildValue("(LON)", e.time, e.cb, tup));
    entry_release(&e);
    return out;
}

/* _items() -> [(time, seq, callback), ...] in heap-array order; the
 * stall digest orders by (time, seq) itself.  Cold path. */
static PyObject *
core_items(EngineCore *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(self->len);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->len; i++) {
        Entry *e = &self->heap[i];
        PyObject *item = Py_BuildValue("(LLO)", e->time, e->seq, e->cb);
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

static int
core_traverse(EngineCore *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->len; i++) {
        Py_VISIT(self->heap[i].cb);
        Py_VISIT(self->heap[i].a0);
        Py_VISIT(self->heap[i].a1);
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

static PyMethodDef core_methods[] = {
    {"post", (PyCFunction)(void (*)(void))core_post, METH_FASTCALL,
     "post(delay, callback, *args)\n--\n\n"
     "Schedule callback(*args) in `delay` ticks."},
    {"post_at", (PyCFunction)(void (*)(void))core_post_at, METH_FASTCALL,
     "post_at(time, callback, *args)\n--\n\n"
     "Schedule callback(*args) at absolute tick `time`."},
    {"_drain", (PyCFunction)core_drain, METH_O,
     "_drain(budget) -> status\n--\n\n"
     "Run the event loop; 0 = drained, 1 = budget exhausted."},
    {"_pop", (PyCFunction)core_pop_next, METH_NOARGS,
     "Pop the next event as (time, cb, args), advancing now."},
    {"_items", (PyCFunction)core_items, METH_NOARGS,
     "Snapshot of queued events as (time, seq, callback) tuples."},
    {"pending", (PyCFunction)core_pending, METH_NOARGS,
     "Number of events still in the queue."},
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
    return mod;
}
