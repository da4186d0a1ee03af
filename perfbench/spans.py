"""Span tracer for the benchmark's traced run.

The tracer wraps public entry points of each simulator layer at class
level, so every call records one span: its layer, the cell it belongs
to, the span that was open when it started (its parent), and its start
and end on the host's monotonic clock.  Spans stay in memory in flat
typed arrays and are written out once, when the run ends.

A layer's *self time* is the time of its spans minus the time of their
child spans.  ``Engine.run`` is the root of every simulation, so the
event loop's own cost shows up as the engine layer's self time.

Install the wrappers before building a system: ``Network.register``
binds ``handle_message`` into its delivery table when each node is
constructed, so a wrapper installed later never sees a delivery.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

#: Layer codes, in the order they are reported.
LAYERS = ("engine", "network", "cpu", "l1", "bridge", "port", "home",
          "mc.replay", "mc.fingerprint", "mc.invariants", "mc.frontier")
CODE = {name: code for code, name in enumerate(LAYERS)}

#: Module that defines a callback's owner -> the layer it belongs to.
MODULE_LAYER = {
    "repro.sim.engine": "engine",
    "repro.sim.network": "network",
    "repro.cpu.core": "cpu",
    "repro.cpu.mcm": "cpu",
    "repro.sim.l1": "l1",
    "repro.sim.cache": "l1",
    "repro.core.bridge": "bridge",
    "repro.core.global_port": "port",
    "repro.protocols.cxl_mem": "home",
    "repro.protocols.global_mesi": "home",
}

_TRACED = "_perfbench_layer"


def _layer_of(callback) -> int | None:
    """Layer code of a scheduled callback, from its owner's module."""
    owner = getattr(callback, "__self__", None)
    module = (type(owner).__module__ if owner is not None
              else getattr(callback, "__module__", None))
    layer = MODULE_LAYER.get(module)
    return None if layer is None else CODE[layer]


class Tracer:
    """Records spans while :attr:`active`; see the module docstring.

    ``cell`` tags every span opened from now on.  Counters that are
    not span counts (messages sent, events executed, ...) accumulate
    in :attr:`counts`.
    """

    def __init__(self) -> None:
        self.layer = array("B")
        self.cell_of = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.cell = 0
        self.active = False
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- span recording -------------------------------------------------
    def open(self, code: int) -> int:
        index = len(self.layer)
        stack = self.stack
        self.layer.append(code)
        self.cell_of.append(self.cell)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def recording(self, layer: str | None = None):
        """Record spans while the block runs, all inside one span of
        ``layer`` when one is given."""
        self.active = True
        index = None if layer is None else self.open(CODE[layer])
        try:
            yield
        finally:
            if index is not None:
                self.close(index)
            self.active = False

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def wrap(self, fn, code: int, key: str | None = None):
        """``fn`` recorded as a span of layer ``code`` (and counted)."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if key is not None:
                tracer.count(key)
            index = tracer.open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        setattr(traced, _TRACED, code)
        return traced

    # -- installation ----------------------------------------------------
    def patch(self, owner, name: str, replacement) -> None:
        """Set ``owner.name``; :meth:`uninstall` restores it."""
        own = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), own))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()

    def install_sim(self) -> None:
        """Wrap the simulator layers' entry points (see the README)."""
        from repro.core.bridge import C3Bridge
        from repro.core.global_port import CxlPort, MesiPort
        from repro.cpu.core import Core
        from repro.protocols.cxl_mem import Dcoh
        from repro.protocols.global_mesi import GlobalMesiDir
        from repro.protocols.messages import BI_CONFLICT_ACK
        from repro.sim.engine import Engine
        from repro.sim.l1 import L1Controller, RccL1
        from repro.sim.network import Network

        tracer = self
        engine, network = CODE["engine"], CODE["network"]
        cpu, l1, bridge = CODE["cpu"], CODE["l1"], CODE["bridge"]
        port, home = CODE["port"], CODE["home"]

        run = Engine.run

        def traced_run(self_, *args, **kwargs):
            if not tracer.active:
                return run(self_, *args, **kwargs)
            before = self_.events_executed
            index = tracer.open(engine)
            try:
                return run(self_, *args, **kwargs)
            finally:
                tracer.close(index)
                tracer.count("engine.events", self_.events_executed - before)

        post = Engine.post

        def traced_post(self_, delay, callback, *args):
            if tracer.active and not hasattr(
                    getattr(callback, "__func__", callback), _TRACED):
                code = _layer_of(callback)
                if code is not None:
                    callback = tracer.wrap(callback, code)
            return post(self_, delay, callback, *args)

        self.patch(Engine, "run", traced_run)
        self.patch(Engine, "post", traced_post)

        def traced_send(fn, bulk: bool):
            def traced(self_, msgs):
                stack = tracer.stack
                if (not tracer.active
                        or (stack and tracer.layer[stack[-1]] == network)):
                    return fn(self_, msgs)  # an inner call of an outer send
                if bulk:
                    msgs = tuple(msgs)
                batch = msgs if bulk else (msgs,)
                tracer.count("network.sends")
                tracer.count("network.msgs", len(batch))
                tracer.count("network.cross", sum(
                    1 for msg in batch if not msg.src.startswith("l1.")
                    and not msg.dst.startswith("l1.")))
                index = tracer.open(network)
                try:
                    return fn(self_, msgs)
                finally:
                    tracer.close(index)

            return traced

        self.patch(Network, "send", traced_send(Network.send, bulk=False))
        self.patch(Network, "send_many",
                   traced_send(Network.send_many, bulk=True))

        for cls in (L1Controller, RccL1):
            self.patch(cls, "handle_message",
                       self.wrap(cls.handle_message, l1, "l1.msgs"))
            core_request = self.wrap(cls.core_request, l1, "l1.requests")

            def traced_core_request(self_, kind, addr, value, callback,
                                    _inner=core_request):
                if tracer.active:
                    callback = tracer.wrap(callback, cpu)
                return _inner(self_, kind, addr, value, callback)

            self.patch(cls, "core_request", traced_core_request)

        self.patch(C3Bridge, "handle_message",
                   self.wrap(C3Bridge.handle_message, bridge, "bridge.msgs"))

        for cls in (Dcoh, GlobalMesiDir):
            handle_message = self.wrap(cls.handle_message, home, "home.msgs")

            def traced_home(self_, msg, _inner=handle_message):
                queued = len(self_.queues.get(msg.addr, ()))
                try:
                    return _inner(self_, msg)
                finally:
                    if (tracer.active
                            and len(self_.queues.get(msg.addr, ())) > queued):
                        tracer.count("home.queued")

            self.patch(cls, "handle_message", traced_home)

        for cls in (CxlPort, MesiPort):
            # The bridge's completion callbacks run as bridge spans.
            request = self.wrap(cls.request, port, "port.calls")
            writeback = self.wrap(cls.writeback, port, "port.calls")

            def traced_request(self_, addr, want, on_grant, _inner=request):
                if tracer.active:
                    on_grant = tracer.wrap(on_grant, bridge)
                return _inner(self_, addr, want, on_grant)

            def traced_writeback(self_, addr, drop, on_done, _inner=writeback):
                if tracer.active:
                    on_done = tracer.wrap(on_done, bridge)
                return _inner(self_, addr, drop, on_done)

            self.patch(cls, "request", traced_request)
            self.patch(cls, "writeback", traced_writeback)
            handle = self.wrap(cls.handle, port, "port.calls")

            def traced_handle(self_, msg, _inner=handle):
                if tracer.active and msg.kind == BI_CONFLICT_ACK:
                    tracer.count("port.conflicts")
                return _inner(self_, msg)

            self.patch(cls, "handle", traced_handle)

        run_program = self.wrap(Core.run_program, cpu)

        def traced_run_program(self_, thread, on_done, _inner=run_program):
            if tracer.active:
                tracer.count("cpu.ops", len(thread))
            return _inner(self_, thread, on_done)

        self.patch(Core, "run_program", traced_run_program)

    def install_mc(self) -> None:
        """Wrap the model checker's replay, fingerprint and invariants
        calls, as :mod:`repro.verify.mc.engine` makes them."""
        from repro.verify import invariants
        from repro.verify.mc import engine as mc_engine
        from repro.verify.mc.model import CheckModel

        self.patch(CheckModel, "replay",
                   self.wrap(CheckModel.replay, CODE["mc.replay"]))
        self.patch(mc_engine, "canonical_fingerprint",
                   self.wrap(mc_engine.canonical_fingerprint,
                             CODE["mc.fingerprint"]))
        self.patch(invariants, "check_all",
                   self.wrap(invariants.check_all, CODE["mc.invariants"]))

    # -- results ------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (times in ns)."""
        return {
            "layer": np.frombuffer(self.layer, dtype=np.uint8),
            "cell": np.frombuffer(self.cell_of, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def layer_totals(self) -> tuple[dict, dict, dict]:
        """Per-layer self seconds, span seconds and span counts."""
        spans = self.arrays()
        duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        child = np.zeros_like(duration)
        parent = spans["parent"]
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        n = len(LAYERS)
        layer = spans["layer"]
        self_ns = np.bincount(layer, weights=duration - child, minlength=n)
        span_ns = np.bincount(layer, weights=duration, minlength=n)
        counts = np.bincount(layer, minlength=n)
        return ({name: float(self_ns[code]) / 1e9
                 for code, name in enumerate(LAYERS)},
                {name: float(span_ns[code]) / 1e9
                 for code, name in enumerate(LAYERS)},
                {name: int(counts[code]) for code, name in enumerate(LAYERS)})

    def dump(self, path) -> None:
        """Write every span (and the layer names) to ``path`` (.npz)."""
        np.savez(path, layers=np.array(LAYERS), **self.arrays())
