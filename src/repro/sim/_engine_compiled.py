"""Python face of the C engine core (``REPRO_ENGINE=compiled``).

:func:`compiled_engine_class` returns a ``CompiledEngine`` class that
subclasses the C ``EngineCore`` (built on demand by
:mod:`repro.sim._engine_build`) and fills in the cold paths -- budget
validation, the sampled run loop, stall digests -- in Python.  The hot
paths (``post``/``post_at``/the drain loop) are inherited straight from
C.  Returns ``None`` when the extension cannot be built or loaded, in
which case :mod:`repro.sim.engine` falls back to the pure-Python
batched engine.
"""

from __future__ import annotations

import gc as _gc
import time as _time_mod

from repro.sim import _engine_build

_compiled_class: type | None = None
_resolved = False


def compiled_engine_class(build: bool = True) -> type | None:
    """The ``CompiledEngine`` class, or ``None`` if the core is unavailable."""
    global _compiled_class, _resolved
    if _resolved:
        return _compiled_class
    _resolved = True
    core = _engine_build.load(build_if_missing=build)
    if core is None:
        return None

    from repro.sim.engine import (
        SimulationLimitError,
        _callback_name,
        _run_budget,
        format_stall_digest,
    )

    class CompiledEngine(core.EngineCore):
        """Discrete-event engine backed by the compiled C event heap.

        Same contract and bit-identical scheduling as the pure-Python
        engines (see ``tests/test_engine_parity.py``); selected with
        ``REPRO_ENGINE=compiled``.
        """

        backend = "compiled"

        def __init__(self) -> None:
            super().__init__()
            self.sampler = None
            self.span_recorder = None

        def run(self, max_events: int | None = None) -> int:
            """Run until the queue drains or ``max_events`` events have run."""
            budget = _run_budget(max_events)
            if self.sampler is not None:
                return self._run_sampled(max_events, budget)
            gc_enabled = _gc.isenabled()
            if gc_enabled:
                _gc.disable()
            try:
                status = self._drain(budget)
            finally:
                if gc_enabled:
                    _gc.enable()
            if status:
                raise SimulationLimitError(self.stall_digest(max_events))
            return self.now

        def _run_sampled(self, max_events: int | None, budget: int) -> int:
            """Instrumented run loop (``EngineSampler`` attached).

            Steps the C core one event at a time so every callback can
            be timed; scheduling order is identical to :meth:`run`.
            """
            sampler = self.sampler
            perf = _time_mod.perf_counter
            every = sampler.sample_every
            gc_enabled = _gc.isenabled()
            if gc_enabled:
                _gc.disable()
            executed = 0
            try:
                while self.pending() > 0:
                    if executed >= budget:
                        self.events_executed += executed
                        executed = 0
                        raise SimulationLimitError(self.stall_digest(max_events))
                    _t, callback, cbargs = self._pop()
                    t0 = perf()
                    callback(*cbargs)
                    elapsed = perf() - t0
                    depth = self.pending() if executed % every == 0 else None
                    sampler.record(_callback_name(callback), elapsed, depth)
                    executed += 1
            finally:
                self.events_executed += executed
                if gc_enabled:
                    _gc.enable()
            return self.now

        def stall_digest(self, max_events: int | None = None) -> str:
            """Multi-line diagnosis of a stalled run (``format_stall_digest``)."""
            return format_stall_digest(self, max_events, self._items())

    _compiled_class = CompiledEngine
    return CompiledEngine
