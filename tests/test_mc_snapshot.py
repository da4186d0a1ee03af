"""In-place snapshots of model-checking states (repro.verify.mc.snapshot).

A restored snapshot must be the state a from-scratch replay of the same
path reaches -- not only in fingerprint, but in every field of the
object graph: engine time and event count, traffic counters, LRU order,
store-buffer flags.  :func:`_graph_state` walks the whole graph
generically, so a field the purpose-built snapshot forgets shows up
here as a difference.  Every case runs on all three engine backends.
"""

import types
from collections import deque

import pytest

import repro.sim.system as system_module
from repro.errors import ConsistencyViolation
from repro.sim.cache import CacheArray
from repro.sim.engine import BatchedEngine, LegacyEngine, load_compiled_engine_class
from repro.verify.mc import check_model, litmus_model
from repro.verify.mc.fingerprint import canonical_fingerprint
from repro.verify.mc.snapshot import Snapshot

COMBO = ("MESI", "CXL", "MESI")

#: Attributes that are not state: static wiring and tables shared by
#: every system, message serial numbers (a global counter), and the
#: legacy engine's tie-break counter (only its order matters).
_STATIC = frozenset(("policy", "variant", "config", "mcm", "links", "rng",
                     "uid", "_seq"))


@pytest.fixture(params=["python", "legacy", "compiled"])
def engine(request, monkeypatch):
    """Route build_system() onto one engine backend."""
    cls = {"python": BatchedEngine, "legacy": LegacyEngine}.get(request.param)
    if request.param == "compiled":
        cls = load_compiled_engine_class()
        if cls is None:
            pytest.skip("the C engine core does not build here")
    monkeypatch.setattr(system_module, "Engine", cls)
    return request.param


def _graph_state(system, network):
    """Every field reachable from the state, as a nested tuple; shared
    objects appear once and are referenced by visit order after that."""
    seen: dict[int, int] = {}

    def walk(value):
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        kind = type(value)
        if kind in (tuple, list, deque):
            return (kind.__name__, tuple(walk(item) for item in value))
        if kind is dict:
            return ("dict", tuple((walk(k), walk(v)) for k, v in value.items()))
        if kind in (set, frozenset):
            return ("set", tuple(sorted(map(repr, map(walk, value)))))
        if id(value) in seen:
            return ("ref", seen[id(value)])
        seen[id(value)] = len(seen)
        if kind is types.FunctionType:
            cells = tuple(walk(cell.cell_contents)
                          for cell in value.__closure__ or ())
            return ("fn", value.__qualname__, walk(value.__defaults__), cells)
        if kind in (types.MethodType, types.BuiltinMethodType):
            return ("method", value.__name__, walk(value.__self__))
        if isinstance(value, CacheArray):
            # Sparse: a set emptied by a restore and a never-touched set
            # are the same state.
            return ("cache", tuple(
                (index, walk(value._sets[index]))
                for index in sorted(value._occupied)))
        if hasattr(value, "events_executed"):  # any engine backend
            return ("engine", value.now, value.events_executed,
                    value.pending())
        fields = dict(getattr(value, "__dict__", {}))
        for klass in kind.__mro__:
            for name in getattr(klass, "__slots__", ()):
                fields[name] = getattr(value, name)
        parts = []
        for name in sorted(fields):
            if name in _STATIC:
                continue
            field = fields[name]
            if name in ("_meta", "_extra") and field is None:
                field = {}  # materialised lazily on first read
            parts.append((name, walk(field)))
        return (kind.__name__, tuple(parts))

    return walk((system, network))


def _branching_states(model, depth=16):
    """The ``(path, system, network)`` states with two or more choices
    along one path of the search (always the newest message first)."""
    path = ()
    system, network = model.replay(path)
    states = []
    for _ in range(depth):
        choices = network.deliverable()
        if not choices:
            break
        if len(choices) > 1:
            states.append(path)
        path += (choices[-1],)
        system, network = model.replay(path, (path[:-1], system, network))
    assert len(states) > 3
    return [(path, *model.replay(path)) for path in states]


@pytest.mark.parametrize("name", ["SB", "2+2W"])
def test_restoring_one_snapshot_twice_gives_equal_states(engine, name):
    # WEAK/TSO clusters: store buffers, prefetches and memory traffic.
    model = litmus_model(name, COMBO, ("WEAK", "TSO"))
    for path, system, network in _branching_states(model):
        choices = network.deliverable()
        snap = Snapshot(path, system, network)
        taken = (canonical_fingerprint(system, network),
                 _graph_state(system, network))
        children = {}
        for _round in range(2):
            for choice in choices:
                child = model.replay(path + (choice,), snap)
                state = (canonical_fingerprint(*child), _graph_state(*child))
                # The same choice from the same snapshot reaches the same
                # state every time, and it is the state a rebuild reaches.
                assert children.setdefault(choice, state) == state
                rebuilt = model.replay(path + (choice,))
                assert state == (canonical_fingerprint(*rebuilt),
                                 _graph_state(*rebuilt))
            restored = model.replay(path, snap)
            assert restored == (system, network)  # the same graph, in place
            assert (canonical_fingerprint(*restored),
                    _graph_state(*restored)) == taken


def test_restore_after_a_mid_delivery_violation_gives_a_clean_state(engine):
    """A delivery that raises leaves a half-run handler, and possibly
    queued events, behind; restoring the parent's snapshot clears both."""
    model = litmus_model("MP", COMBO)
    model.violate_atomicity = True
    result = check_model(model, max_states=400, shrink=False)
    failing = None
    for ce in result.counterexamples:
        try:
            model.replay(ce.path)
        except ConsistencyViolation:
            failing = ce.path
            break
    assert failing is not None, "no mid-delivery violation in the search"
    parent = failing[:-1]
    system, network = model.replay(parent)
    snap = Snapshot(parent, system, network)
    taken = _graph_state(system, network)
    siblings = [choice for choice in network.deliverable()
                if choice != failing[-1]]
    with pytest.raises(ConsistencyViolation):
        model.replay(failing, snap)
    assert _graph_state(system, network) != taken
    # The violations found here fire before their handler posts an
    # event, so queue one by hand: a restore must drop it, not run it.
    system.engine.post(1, system.cores[0].park)
    restored = model.replay(parent, snap)
    assert restored[0].engine.pending() == 0
    assert _graph_state(*restored) == taken
    for choice in siblings:
        child = model.replay(parent + (choice,), snap)
        assert _graph_state(*child) == _graph_state(
            *model.replay(parent + (choice,)))


def test_snapshot_needs_a_quiescent_engine():
    model = litmus_model("MP", COMBO)
    system, network = model.replay(())
    system.engine.post(1, lambda: None)
    with pytest.raises(ValueError, match="quiescent"):
        Snapshot((), system, network)
