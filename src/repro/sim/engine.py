"""Discrete-event engine.

Time is measured in integer **ticks**.  The rest of the package uses one
tick = 1 ps, giving exact representations of both CPU cycles and
nanosecond-scale link latencies (see :class:`repro.sim.config.SystemConfig`).

Three interchangeable engine backends implement the same contract --
events ordered by ``(time, insertion order)``, FIFO among same-tick
events -- and produce bit-identical simulations:

- :class:`BatchedEngine` (the default, ``REPRO_ENGINE=python``): a
  slotted calendar queue.  Events live in per-tick buckets as
  ``(callback, args)`` tuples; the heap orders only the *distinct
  pending ticks* (plain ints, so heap comparisons never touch Python
  objects), and ``run()`` drains each tick's bucket in one inner loop.
  Steady-state scheduling allocates one record tuple and nothing else.
- :class:`CompiledEngine` (``REPRO_ENGINE=compiled``): the same
  contract implemented by a C extension (``repro.sim._engine_core``)
  built on demand with the system C compiler; automatically falls back
  to :class:`BatchedEngine` when no compiler/headers are available.
  See :mod:`repro.sim._engine_build`.
- :class:`LegacyEngine` (``REPRO_ENGINE=legacy``): the original
  object-at-a-time heapq loop, kept as the benchmark baseline and as a
  parity reference (``tests/test_engine_parity.py``).

``Engine`` is bound to the selected backend at import time.  The
contract is the same on every backend: ``post(delay, cb, *args)`` and
``post_at(time, cb, *args)`` schedule (a negative delay or a past time
raises ``ValueError``); ``run(max_events=None)`` drains the queue,
raising :class:`SimulationLimitError` with :meth:`stall_digest` text
once ``max_events`` events have run and work is still queued;
``pending()``, ``now``, ``events_executed``, ``backend`` and the
``sampler``/``span_recorder`` observability attachments.  Events
cannot be cancelled.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import gc as _gc
import heapq
import os
import sys
import time as _time_mod
import warnings
from collections import Counter
from typing import Any, Callable, Iterable

_heappush = heapq.heappush
_heappop = heapq.heappop
_UNBOUNDED = sys.maxsize

#: Environment knob selecting the engine backend at import time.
ENGINE_ENV = "REPRO_ENGINE"


def _callback_name(callback: Callable) -> str:
    """Stable short name for a scheduled callback (digests, profiles)."""
    name = getattr(callback, "__qualname__", None)
    if name is None:
        name = getattr(type(callback), "__qualname__", repr(callback))
    return name


class SimulationLimitError(RuntimeError):
    """Raised when a run exceeds its event budget (deadlock watchdog)."""


class SimulationDeadlockError(RuntimeError):
    """Raised when the event queue drains while work is still outstanding."""


def _run_budget(max_events: int | None) -> int:
    """The event budget of one ``run(max_events)`` call."""
    if max_events is None:
        return _UNBOUNDED
    if max_events < 0:
        raise ValueError(f"max_events must be >= 0 (got {max_events})")
    return max_events


def format_stall_digest(engine, max_events: int | None,
                        queued: Iterable[tuple[int, int, Callable]]) -> str:
    """Multi-line diagnosis of a stalled/livelocked run.

    ``queued`` yields one ``(time, order, callback)`` per queued event,
    where ``order`` breaks ties between same-tick events in firing
    order.  The first line reports the event budget, time and queue
    depth; the rest breaks the queue down by callback, names the oldest
    queued event, and -- when a span recorder is attached -- lists the
    oldest in-flight spans, which usually point straight at the stuck
    transaction.  Built only on the stall branch: a clean run never
    calls this.
    """
    queued = list(queued)
    lines = [
        f"exceeded {max_events} events at t={engine.now} "
        f"({len(queued)} pending); likely livelock or deadlock retry storm"
    ]
    if queued:
        counts = Counter(_callback_name(callback)
                         for _t, _order, callback in queued)
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        lines.append("top pending callbacks: "
                     + ", ".join(f"{name} x{count}" for name, count in top))
        t, _order, callback = min(queued, key=lambda item: item[:2])
        lines.append(f"oldest queued: {_callback_name(callback)} "
                     f"scheduled for t={t} (age {max(engine.now - t, 0)} ticks)")
    if engine.span_recorder is not None:
        stale = engine.span_recorder.oldest_open(3)
        if stale:
            lines.append("oldest in-flight spans: " + "; ".join(stale))
    return "\n".join(lines)


class BatchedEngine:
    """Deterministic discrete-event engine over a slotted calendar queue.

    ``_buckets`` maps an absolute tick to either a single ``(callback,
    args)`` tuple (the common sparse case: one event on that tick) or a
    list of such tuples in insertion order.  ``_ticks`` is a heap of
    the distinct pending tick values, so every heap operation compares
    plain ints.
    """

    backend = "python"

    def __init__(self) -> None:
        self.now: int = 0
        self._buckets: dict = {}
        self._ticks: list[int] = []
        self.events_executed: int = 0
        # Observability attachments (repro.obs); None keeps the hot run
        # loop untouched -- run() checks them exactly once per call.
        self.sampler = None
        self.span_recorder = None

    # -- scheduling ----------------------------------------------------
    def post(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        t = self.now + delay
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            buckets[t] = (callback, args)
            _heappush(self._ticks, t)
        elif bucket.__class__ is list:
            bucket.append((callback, args))
        else:
            buckets[t] = [bucket, (callback, args)]

    def post_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute tick ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (t={time} < now={self.now})")
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = (callback, args)
            _heappush(self._ticks, time)
        elif bucket.__class__ is list:
            bucket.append((callback, args))
        else:
            buckets[time] = [bucket, (callback, args)]

    # -- introspection -------------------------------------------------
    def pending(self) -> int:
        """Number of events still in the queue."""
        return sum(len(b) if b.__class__ is list else 1
                   for b in self._buckets.values())

    # -- the run loop --------------------------------------------------
    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains or ``max_events`` events have run.

        Returns the current simulation time when the run stops.  The
        ``max_events`` bound is the engine-level watchdog used by the
        verification harness to convert protocol deadlocks into test
        failures instead of hangs.

        This is the simulator's hottest loop.  The outer loop pops one
        *tick* (a plain int) per iteration; the inner loop drains that
        tick's bucket -- including records appended to it by the
        callbacks themselves -- with nothing but record loads, one
        budget compare and the callback call per event.  Single-event
        ticks skip the inner loop entirely.  See
        ``benchmarks/test_engine_core.py`` and ``docs/PERFORMANCE.md``
        for measured throughput.
        """
        budget = _run_budget(max_events)
        if self.sampler is not None:
            return self._run_sampled(max_events, budget)
        gc_enabled = _gc.isenabled()
        if gc_enabled:
            _gc.disable()
        ticks = self._ticks
        buckets = self._buckets
        heappop = _heappop
        executed = 0
        try:
            while ticks:
                t = heappop(ticks)
                batch = buckets[t]
                if batch.__class__ is not list:
                    # Sparse fast path: exactly one record on this
                    # tick.  The bucket is removed before the call so
                    # a same-tick reschedule starts cleanly.
                    if executed >= budget:
                        _heappush(ticks, t)
                        executed = self._fold(executed)
                        raise SimulationLimitError(self.stall_digest(max_events))
                    del buckets[t]
                    self.now = t
                    batch[0](*batch[1])
                    executed += 1
                    continue
                record = None
                try:
                    for record in batch:
                        if executed >= budget:
                            self._requeue_from(batch, t, record, consumed=False)
                            executed = self._fold(executed)
                            raise SimulationLimitError(
                                self.stall_digest(max_events))
                        self.now = t
                        record[0](*record[1])
                        executed += 1
                except SimulationLimitError:
                    raise
                except BaseException:
                    # A callback raised mid-batch: keep the unconsumed
                    # suffix queued so the engine state stays exact.
                    self._requeue_from(batch, t, record, consumed=True)
                    raise
                del buckets[t]
        finally:
            self.events_executed += executed
            if gc_enabled:
                _gc.enable()
        return self.now

    def _run_sampled(self, max_events: int | None, budget: int) -> int:
        """Instrumented run loop used when an ``EngineSampler`` is attached.

        Times every callback with ``perf_counter`` and subsamples queue
        depth every ``sampler.sample_every`` events.  Kept separate
        from :meth:`run` so the uninstrumented loop stays
        allocation-free; scheduling order is identical, so sampled and
        unsampled runs produce bit-identical simulations.
        """
        sampler = self.sampler
        perf = _time_mod.perf_counter
        every = sampler.sample_every
        gc_enabled = _gc.isenabled()
        if gc_enabled:
            _gc.disable()
        ticks = self._ticks
        buckets = self._buckets
        heappop = _heappop
        executed = 0
        try:
            while ticks:
                t = heappop(ticks)
                batch = buckets[t]
                if batch.__class__ is not list:
                    # Normalize so the loop below (and any same-tick
                    # appends from callbacks) sees one live list.
                    batch = [batch]
                    buckets[t] = batch
                record = None
                try:
                    for record in batch:
                        if executed >= budget:
                            self._requeue_from(batch, t, record, consumed=False)
                            executed = self._fold(executed)
                            raise SimulationLimitError(
                                self.stall_digest(max_events))
                        cb = record[0]
                        self.now = t
                        t0 = perf()
                        cb(*record[1])
                        elapsed = perf() - t0
                        depth = self.pending() if executed % every == 0 else None
                        sampler.record(_callback_name(cb), elapsed, depth)
                        executed += 1
                except SimulationLimitError:
                    raise
                except BaseException:
                    self._requeue_from(batch, t, record, consumed=True)
                    raise
                del buckets[t]
        finally:
            self.events_executed += executed
            if gc_enabled:
                _gc.enable()
        return self.now

    # -- run() cold-path helpers ---------------------------------------
    def _fold(self, executed: int) -> int:
        """Fold the local executed count into the public counter so the
        stall digest (built while the exception is raised) sees exact
        numbers; returns 0 so the ``finally`` fold adds nothing."""
        self.events_executed += executed
        return 0

    def _requeue_from(self, batch: list, t: int, record, consumed: bool) -> None:
        """Restore queue state after a mid-batch stop at ``record``.

        Drops the already-drained prefix (and ``record`` itself when
        ``consumed``), re-registers the tick on the heap if anything is
        left, and removes the bucket otherwise.  Cold path only.
        """
        if record is None:
            idx = 0
        else:
            idx = next(i for i, r in enumerate(batch) if r is record)
            if consumed:
                idx += 1
        del batch[:idx]
        if batch:
            _heappush(self._ticks, t)
        else:
            self._buckets.pop(t, None)

    # -- diagnostics ---------------------------------------------------
    def stall_digest(self, max_events: int | None = None) -> str:
        """Multi-line diagnosis of a stalled run (:func:`format_stall_digest`)."""
        def queued():
            order = 0
            for t, bucket in self._buckets.items():
                for record in bucket if bucket.__class__ is list else (bucket,):
                    yield t, order, record[0]
                    order += 1

        return format_stall_digest(self, max_events, queued())


class LegacyEvent:
    """A scheduled callback (legacy object-per-event engine)."""

    __slots__ = ("time", "seq", "callback", "args")

    def __init__(self, time: int, seq: int, callback: Callable[..., None],
                 args: tuple = ()) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args


class LegacyEngine:
    """The original object-at-a-time heapq engine (pre-batched core).

    Kept as the performance baseline for
    ``benchmarks/test_engine_core.py`` and as the behavioral reference
    for ``tests/test_engine_parity.py``; selectable for real runs with
    ``REPRO_ENGINE=legacy``.
    """

    backend = "legacy"

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list = []
        self._seq: int = 0
        self.events_executed: int = 0
        self.sampler = None
        self.span_recorder = None

    def post(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        time = self.now + delay
        _heappush(self._queue, (time, seq, LegacyEvent(time, seq, callback, args)))
        self._seq = seq + 1

    def post_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute tick ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (t={time} < now={self.now})")
        seq = self._seq
        _heappush(self._queue, (time, seq, LegacyEvent(time, seq, callback, args)))
        self._seq = seq + 1

    def pending(self) -> int:
        """Number of events still in the queue."""
        return len(self._queue)

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains or ``max_events`` events have run."""
        budget = _run_budget(max_events)
        if self.sampler is not None:
            return self._run_sampled(max_events, budget)
        gc_enabled = _gc.isenabled()
        if gc_enabled:
            _gc.disable()
        executed = 0
        queue = self._queue
        heappop = _heappop
        try:
            while queue:
                if executed >= budget:
                    self.events_executed += executed
                    executed = 0
                    raise SimulationLimitError(self.stall_digest(max_events))
                time, _seq, event = heappop(queue)
                self.now = time
                event.callback(*event.args)
                executed += 1
        finally:
            self.events_executed += executed
            if gc_enabled:
                _gc.enable()
        return self.now

    def _run_sampled(self, max_events: int | None, budget: int) -> int:
        sampler = self.sampler
        perf = _time_mod.perf_counter
        every = sampler.sample_every
        gc_enabled = _gc.isenabled()
        if gc_enabled:
            _gc.disable()
        executed = 0
        queue = self._queue
        heappop = _heappop
        try:
            while queue:
                if executed >= budget:
                    self.events_executed += executed
                    executed = 0
                    raise SimulationLimitError(self.stall_digest(max_events))
                time, _seq, event = heappop(queue)
                self.now = time
                t0 = perf()
                event.callback(*event.args)
                elapsed = perf() - t0
                depth = len(queue) if executed % every == 0 else None
                sampler.record(_callback_name(event.callback), elapsed, depth)
                executed += 1
        finally:
            self.events_executed += executed
            if gc_enabled:
                _gc.enable()
        return self.now

    def stall_digest(self, max_events: int | None = None) -> str:
        """Multi-line diagnosis of a stalled run (:func:`format_stall_digest`)."""
        return format_stall_digest(
            self, max_events,
            ((time, seq, event.callback) for time, seq, event in self._queue))


def load_compiled_engine_class(build: bool = True):
    """The C-core engine class, or None when it cannot be provided.

    Imports (and, when ``build`` is true, compiles) lazily so the
    default pure-Python path never pays for the toolchain probe.
    """
    try:
        from repro.sim._engine_compiled import compiled_engine_class

        return compiled_engine_class(build=build)
    except Exception:  # pragma: no cover - defensive: never break import
        return None


def resolve_engine_class(spec: str | None = None) -> tuple[str, type]:
    """Resolve an engine backend spec to ``(name, class)``.

    ``spec`` defaults to the ``REPRO_ENGINE`` environment knob; empty
    or ``python``/``batched`` selects :class:`BatchedEngine`,
    ``legacy`` the pre-batched loop, and ``compiled`` the C core with
    an automatic fallback to the pure-Python engine (with a warning)
    when no extension can be built or loaded.
    """
    if spec is None:
        spec = os.environ.get(ENGINE_ENV, "")
    text = spec.strip().lower()
    if text in ("", "python", "batched", "default"):
        return "python", BatchedEngine
    if text == "legacy":
        return "legacy", LegacyEngine
    if text == "compiled":
        cls = load_compiled_engine_class()
        if cls is not None:
            return "compiled", cls
        warnings.warn(
            f"{ENGINE_ENV}=compiled requested but the C engine core is "
            "unavailable (no compiler/headers?); falling back to the "
            "pure-Python batched engine", RuntimeWarning, stacklevel=2)
        return "python", BatchedEngine
    warnings.warn(
        f"unknown {ENGINE_ENV}={spec!r}; using the pure-Python batched "
        "engine (valid: python, compiled, legacy)", RuntimeWarning,
        stacklevel=2)
    return "python", BatchedEngine


#: Backend selected at import time (the ``REPRO_ENGINE`` knob).
ENGINE_BACKEND, Engine = resolve_engine_class()
