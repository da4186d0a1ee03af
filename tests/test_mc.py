"""Tests for the sharded model checker (repro.verify.mc).

Covers the four pillars of the subsystem: canonical fingerprints are
process-stable and injective, the sharded engine is exactly equivalent
to the serial search, injected defects are *found* (with shrunk,
replayable counterexamples), and the shipped pairings verify
exhaustively.
"""

import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.isa import ThreadProgram, load, store
from repro.verify.litmus import LITMUS_BY_NAME, materialize
from repro.verify.mc import (
    CheckModel,
    CheckResult,
    Counterexample,
    ModelChecker,
    check_litmus,
    check_model,
    dedup,
    litmus_model,
)
from repro.errors import ConsistencyViolation
from repro.verify import invariants
from repro.verify.mc.fingerprint import (
    canonical_bytes,
    canonical_fingerprint,
    fingerprint_parts,
    state_parts,
)
from repro.verify.mc.model import replay_traced
from repro.verify.mc.snapshot import Snapshot

X, Y = 0x10, 0x11
COMBO = ("MESI", "CXL", "MESI")


@pytest.fixture(scope="module")
def corr1_serial():
    """Exhaustive serial CoRR1 check, shared across the module."""
    return check_litmus("CoRR1", COMBO, max_states=0)


@pytest.fixture(scope="module")
def broken_mp():
    """Exhaustive check of MP with Rule-II atomicity disabled."""
    model = litmus_model("MP", COMBO)
    model.violate_atomicity = True
    return check_model(model, max_states=3_000)


# ---------------------------------------------------------------------------
# Fingerprints.
# ---------------------------------------------------------------------------

def test_canonical_encoding_is_injective_on_adjacent_strings():
    assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))
    assert canonical_bytes((1, 23)) != canonical_bytes((12, 3))
    assert canonical_bytes(("1",)) != canonical_bytes((1,))
    assert canonical_bytes((True,)) != canonical_bytes((1,))
    assert canonical_bytes((None,)) != canonical_bytes(("",))


def test_canonical_encoding_sorts_unordered_containers():
    assert fingerprint_parts(({3, 1, 2},)) == fingerprint_parts(({2, 3, 1},))
    assert (fingerprint_parts(({"b": 1, "a": 2},))
            == fingerprint_parts(({"a": 2, "b": 1},)))


def test_fingerprint_rejects_non_primitive_parts():
    with pytest.raises(TypeError):
        fingerprint_parts((object(),))


def _reference_encode(value, out: list) -> None:
    """The original recursive encoder, kept as the byte-level oracle
    for :func:`canonical_bytes`'s fast path."""
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        text = str(value).encode("ascii")
        out.append(b"i%d:" % len(text))
        out.append(text)
    elif isinstance(value, float):
        text = value.hex().encode("ascii")
        out.append(b"f%d:" % len(text))
        out.append(text)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s%d:" % len(data))
        out.append(data)
    elif isinstance(value, bytes):
        out.append(b"b%d:" % len(value))
        out.append(value)
    elif isinstance(value, (tuple, list)):
        out.append(b"(")
        for item in value:
            _reference_encode(item, out)
        out.append(b")")
    elif isinstance(value, (set, frozenset)):
        out.append(b"{")
        for item in sorted(value, key=repr):
            _reference_encode(item, out)
        out.append(b"}")
    elif isinstance(value, dict):
        out.append(b"[")
        for key in sorted(value, key=repr):
            _reference_encode(key, out)
            _reference_encode(value[key], out)
        out.append(b"]")
    else:
        raise TypeError(f"unencodable {type(value).__name__}")


def _reference_bytes(parts) -> bytes:
    out: list = []
    _reference_encode(parts, out)
    return b"".join(out)


class _Int(int):
    """An int subclass whose text differs from the int's."""

    def __str__(self) -> str:
        return f"+{int(self)}"


class _Str(str):
    """A str subclass; encodes as its value."""


class _Kind(IntEnum):
    SMALL = 1
    LARGE = 70000


_hashable_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(allow_nan=False), st.binary(max_size=6),
    st.integers().map(_Int), st.text(max_size=6).map(_Str),
    st.sampled_from(list(_Kind)),
)
_part_trees = st.recursive(
    _hashable_leaves,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_hashable_leaves, children, max_size=3),
        st.frozensets(_hashable_leaves, max_size=3),
        st.sets(_hashable_leaves, max_size=3),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_part_trees)
def test_canonical_bytes_match_the_reference_encoder(parts):
    """The fast path is byte-identical to the recursive encoder, also
    for values it hands on (bool vs int, int/str subclasses, floats,
    bytes, dicts, sets) -- encoding each tree twice, so the second pass
    reads the leaf caches."""
    expected = _reference_bytes(parts)
    assert canonical_bytes(parts) == expected
    assert canonical_bytes(parts) == expected
    assert canonical_bytes((parts,)) == _reference_bytes((parts,))


def test_leaf_caches_keep_equal_values_of_different_types_apart():
    """``1``, ``True``, ``1.0``, ``_Int(1)`` and ``_Kind.SMALL`` are
    equal as dict keys but encode differently."""
    values = (1, True, 1.0, _Int(1), _Kind.SMALL, "1", _Str("1"))
    for order in (values, values[::-1]):
        for value in order:
            assert canonical_bytes((value,)) == _reference_bytes((value,))
            assert canonical_bytes(value) == _reference_bytes(value)


def test_canonical_bytes_match_the_reference_on_litmus_states():
    model = litmus_model("SB", COMBO)
    path = ()
    for _ in range(12):
        system, network = model.replay(path)
        parts = state_parts(system, network)
        assert canonical_bytes(parts) == _reference_bytes(parts)
        choices = network.deliverable()
        if not choices:
            break
        path += (choices[-1],)


def test_fingerprints_stable_across_hash_seeds():
    """The same protocol state fingerprints identically in processes
    launched with different PYTHONHASHSEED values -- the property
    partition-by-hash sharding across a worker fleet depends on."""
    script = (
        "from repro.verify.mc.fingerprint import canonical_fingerprint\n"
        "from repro.verify.mc.model import litmus_model\n"
        "m = litmus_model('MP', ('MESI', 'CXL', 'MESI'))\n"
        "print(canonical_fingerprint(*m.replay((0, 1, 0))))\n"
    )
    values = []
    for seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        values.append(int(out.stdout.strip()))
    assert len(set(values)) == 1, values


class _InvProbe(CheckModel):
    """Records the Inv messages of every state the search reaches."""

    def replay(self, path, base=None, setup=None):
        system, network = super().replay(path, base, setup)
        self.invs.add(tuple((msg.src, msg.addr, msg.dst)
                            for msg in network.outbox if msg.kind == "Inv"))
        return system, network


def test_invalidations_reach_sharers_in_sorted_order():
    """A bridge invalidating several sharers sends to them in sorted
    order, so a state's delivery choices depend neither on the sharer
    set's add/discard history (a restored snapshot's differs from a
    rebuild's) nor on PYTHONHASHSEED."""
    idle = ThreadProgram("idle", [])
    model = _InvProbe(combo=COMBO, programs=(
        ThreadProgram("r0", [load(X, "r0")]), idle,
        ThreadProgram("r1", [load(X, "r1")]), idle,
        ThreadProgram("w", [store(X, 1)]), idle,
    ))
    model.invs = set()
    assert check_model(model, max_states=0).ok
    fanned = [invs for invs in model.invs if len(invs) > 1]
    assert fanned  # some state invalidates both readers at once
    assert all(list(invs) == sorted(invs) for invs in fanned)


# ---------------------------------------------------------------------------
# Engine equivalence: mc serial == mc sharded.
# ---------------------------------------------------------------------------

def test_sharded_search_is_equivalent_to_serial(corr1_serial):
    sharded = check_litmus("CoRR1", COMBO, shards=3, max_states=0)
    assert sharded.states == corr1_serial.states
    assert sharded.terminals == corr1_serial.terminals
    assert sharded.outcomes == corr1_serial.outcomes
    assert sharded.ok
    assert sharded.rounds > 1  # the frontier really crossed shards


def test_sharded_search_on_the_pool_matches_one_shard():
    """SB on MESI-CXL-MESI: four shards on the process pool find the
    same states, outcomes and counterexample signatures as one shard,
    and the search really reaches the pool."""
    from repro.obs.metrics import MetricsRegistry

    model = litmus_model("SB", COMBO)
    single = check_model(model, max_states=0)
    registry = MetricsRegistry()
    pooled = check_model(model, shards=4, backend="local", max_states=0,
                         metrics=registry)
    waves = registry.counter_values("mc.")
    assert waves["mc.waves"] > waves["mc.inline_waves"]
    assert pooled.ok and single.ok
    assert (pooled.states, pooled.terminals) \
        == (single.states, single.terminals)
    assert pooled.to_dict()["outcomes"] == single.to_dict()["outcomes"]
    assert [ce.signature for ce in pooled.counterexamples] \
        == [ce.signature for ce in single.counterexamples]


def test_same_configuration_is_deterministic(corr1_serial):
    again = check_litmus("CoRR1", COMBO, max_states=0)
    assert again.states == corr1_serial.states
    assert again.outcome_examples == corr1_serial.outcome_examples


def test_outcome_witness_paths_replay_to_their_outcome(corr1_serial):
    model = litmus_model("CoRR1", COMBO)
    for outcome, path in corr1_serial.outcome_examples.items():
        system, network = model.replay(path)
        assert not network.deliverable()
        assert model.outcome(system) == outcome


def test_write_write_race_outcomes_via_mc():
    """The explorer's classic write-write race, through the new engine."""
    model = CheckModel(
        combo=COMBO,
        programs=(ThreadProgram("a", [store(X, 1)]),
                  ThreadProgram("b", [store(X, 2)])),
        observed_addrs=(X,))
    result = check_model(model, max_states=0)
    assert result.ok
    assert result.outcomes == {((f"[{X}]", 1),), ((f"[{X}]", 2),)}


@pytest.mark.parametrize("option", [
    {"placement": [1, 0]}, {"check_invariants": False},
], ids=lambda option: next(iter(option)))
def test_model_payload_with_a_removed_option_is_rejected(option):
    """Payloads may still name placement / invariant checking, but only
    at the defaults the model always uses now."""
    payload = litmus_model("MP", COMBO).to_dict()
    defaults = dict(payload, placement=None, check_invariants=True)
    assert CheckModel.from_dict(defaults) == CheckModel.from_dict(payload)
    with pytest.raises(ValueError):
        CheckModel.from_dict(dict(payload, **option))


def test_check_model_survives_pickling():
    import pickle

    model = litmus_model("MP", COMBO)
    model.replay((0,))  # leave a rebuilt system's thread counter behind
    clone = pickle.loads(pickle.dumps(model))
    assert clone.combo == model.combo
    assert clone.outcome(clone.replay(())[0]) is not None


# ---------------------------------------------------------------------------
# Truncation semantics.
# ---------------------------------------------------------------------------

def test_truncated_exploration_is_not_ok():
    """A capped run proves nothing: ok must be False even with zero
    violations and some terminals found."""
    model = litmus_model("MP", COMBO)
    capped = CheckResult(model=model, states=10, terminals=1, truncated=True)
    assert not capped.ok
    assert CheckResult(model=model, states=10, terminals=1,
                       truncated=False).ok

    result = check_litmus("MP", COMBO, max_states=30)
    assert result.truncated and not result.ok and not result.counterexamples


# ---------------------------------------------------------------------------
# Defect finding: the checker must catch what we break.
# ---------------------------------------------------------------------------

def test_atomicity_defect_is_found(broken_mp):
    assert not broken_mp.ok
    assert not broken_mp.truncated  # found by exhaustion, not luck
    assert broken_mp.counterexamples
    shortest = min(len(ce.path) for ce in broken_mp.counterexamples)
    assert 0 < shortest <= 12  # the defect bites within a dozen deliveries


def test_counterexamples_shrink_and_reproduce(broken_mp):
    ce = broken_mp.counterexamples[0]
    assert ce.shrunk
    assert ce.reproduces()


def test_counterexample_json_round_trip_replays_identically(broken_mp):
    ce = broken_mp.counterexamples[0]
    text = ce.to_json()
    back = Counterexample.from_json(text)
    assert back.signature == ce.signature
    assert back.reproduces()
    assert back.to_json() == text  # byte-identical re-serialization


def test_sharded_search_finds_the_same_defects(broken_mp):
    model = litmus_model("MP", COMBO)
    model.violate_atomicity = True
    sharded = check_model(model, shards=3, max_states=3_000, shrink=False)
    assert ({ce.signature for ce in sharded.counterexamples}
            == {ce.signature for ce in broken_mp.counterexamples})


def test_shrinking_only_removes_deliveries(broken_mp):
    """A shrunk path is a subsequence constraint in length: never longer
    than the raw path dedup selected."""
    model = litmus_model("MP", COMBO)
    model.violate_atomicity = True
    raw = check_model(model, max_states=3_000, shrink=False)
    shrunk_by_sig = {ce.signature: ce for ce in broken_mp.counterexamples}
    for ce in raw.counterexamples:
        mate = shrunk_by_sig.get(ce.signature)
        if mate is not None:
            assert len(mate.path) <= len(ce.path)


def test_dedup_keeps_shortest_path_per_signature():
    model = litmus_model("MP", COMBO)
    long = Counterexample(model, (0, 1, 2), "deadlock", "x", fingerprint=7)
    short = Counterexample(model, (0, 1), "deadlock", "y", fingerprint=7)
    other = Counterexample(model, (0,), "deadlock", "z", fingerprint=8)
    kept = dedup([long, short, other])
    assert [ce.path for ce in kept] == [(0,), (0, 1)]


def test_stuck_threads_tracks_replay_progress():
    """stuck_threads(system) reads the system it is given: positive
    while a thread still waits on undelivered messages, zero at a
    terminal, whatever other system was replayed since."""
    model = litmus_model("MP", COMBO)
    root, network = model.replay(())
    assert model.stuck_threads(root) == 2  # nothing delivered yet
    # Drain greedily to completion: always deliver the oldest choice.
    path = ()
    for _ in range(200):
        system, network = model.replay(path)
        choices = network.deliverable()
        if not choices:
            break
        path = path + (choices[0],)
    assert model.stuck_threads(system) == 0  # the drained system terminated
    assert model.stuck_threads(root) == 2  # an older graph is unaffected


# ---------------------------------------------------------------------------
# The acceptance gate: every shipped pairing verifies exhaustively.
# ---------------------------------------------------------------------------

def _all_combos():
    from repro.core.spec import GLOBAL_SPECS, LOCAL_SPECS

    return [(local, global_, local)
            for local in LOCAL_SPECS for global_ in GLOBAL_SPECS]


@pytest.mark.parametrize("combo", _all_combos(), ids=lambda c: "-".join(c))
def test_every_shipped_pairing_verifies_corr1_exhaustively(combo):
    """All 8 pairings pass an uncapped exhaustive check on CoRR1:
    no invariant violations, no deadlocks, every delivery order
    terminates, and the outcome set is axiomatically sound."""
    from repro.verify.axiomatic import enumerate_outcomes

    test = LITMUS_BY_NAME["CoRR1"]
    result = check_litmus("CoRR1", combo, max_states=0)
    assert result.ok, (combo, [ce.describe()
                               for ce in result.counterexamples[:2]])
    assert not result.truncated
    allowed = enumerate_outcomes(
        materialize(test, ["SC", "SC"]), ["SC", "SC"], test.observed_addrs)
    assert result.outcomes <= allowed
    assert not any(test.matches_forbidden(dict(o)) for o in result.outcomes)


# ---------------------------------------------------------------------------
# CLI: python -m repro check.
# ---------------------------------------------------------------------------

def test_cli_check_verified_exit_zero(capsys):
    from repro.cli import main

    code = main(["check", "--combo", "MESI:CXL:MESI", "--litmus", "CoRR1",
                 "--max-states", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified" in out
    assert "states" in out
    assert "extended the live state" in out


def test_cli_check_truncated_exit_one(capsys):
    from repro.cli import main

    code = main(["check", "--litmus", "MP", "--max-states", "25"])
    out = capsys.readouterr().out
    assert code == 1
    assert "INCONCLUSIVE" in out
    assert "truncated" in out


def test_cli_check_names_the_state_cap_that_fired(capsys):
    from repro.cli import main

    code = main(["check", "--litmus", "MP", "--max-states", "25",
                 "--depth", "40"])
    out = capsys.readouterr().out
    assert code == 1
    assert "truncated : search capped at 25 states" in out


def test_cli_check_names_the_depth_cap_that_fired(capsys):
    """A depth-capped run under the default state cap reports the depth
    cap, not the state cap it never reached."""
    from repro.cli import main

    code = main(["check", "--litmus", "MP", "--depth", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "INCONCLUSIVE" in out
    assert "truncated : search capped at depth 5" in out
    assert "200000" not in out


@pytest.mark.parametrize("caps", [
    {"max_states": -1}, {"max_depth": -2},
], ids=lambda caps: next(iter(caps)))
def test_negative_caps_are_rejected(caps):
    with pytest.raises(ValueError, match=next(iter(caps))):
        ModelChecker(litmus_model("MP", COMBO), **caps)


@pytest.mark.parametrize("flags", [
    ["--max-states", "-1"], ["--depth", "-2"],
], ids=lambda flags: flags[0].lstrip("-"))
def test_cli_check_negative_caps_exit_two(capsys, flags):
    from repro.cli import main

    code = main(["check", "--litmus", "MP", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "must be >= 0" in captured.err
    assert "states" not in captured.out  # no search ran


def test_cli_check_unknown_litmus_exit_two(capsys):
    from repro.cli import main

    assert main(["check", "--litmus", "nosuch"]) == 2


def test_cli_check_unknown_protocol_exit_two(capsys):
    """A bad protocol name is a usage error, not a crash counterexample."""
    from repro.cli import main

    code = main(["check", "--combo", "MESI:BOGUS:MESI", "--litmus", "MP"])
    err = capsys.readouterr().err
    assert code == 2
    assert "BOGUS" in err and "available" in err


def test_litmus_model_canonicalizes_protocol_names():
    """Lowercase combos resolve to registry keys before any replay."""
    model = litmus_model("CoRR1", ("mesi", "cxl", "moesi"))
    assert model.combo == ("MESI", "CXL", "MOESI")


def test_cli_check_json_payload(capsys):
    from repro.cli import main

    code = main(["check", "--litmus", "CoRR1", "--max-states", "0",
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verified"] is True
    assert payload["states"] > 0
    assert payload["metrics"]["mc.states"] == payload["states"]
    assert payload["escaped_outcomes"] == []


def test_cli_check_writes_counterexample_fixtures(tmp_path, capsys,
                                                  monkeypatch):
    """--ce-out writes replayable JSON fixtures when the check fails.

    A shipped combo never fails, so the model builder is patched to
    return a Rule-II-broken model -- the CLI sees counterexamples and
    must persist them.
    """
    from repro.cli import main

    real = litmus_model

    def broken(name, combo, mcms=("SC", "SC")):
        model = real(name, combo, mcms)
        model.violate_atomicity = True
        return model

    # _cmd_check imports litmus_model from repro.verify.mc at call time.
    monkeypatch.setattr("repro.verify.mc.litmus_model", broken)
    out_dir = tmp_path / "ces"
    code = main(["check", "--litmus", "MP", "--max-states", "2000",
                 "--ce-out", str(out_dir)])
    capsys.readouterr()
    assert code == 1
    written = sorted(out_dir.glob("ce-MP-*.json"))
    assert written
    ce = Counterexample.from_json(written[0].read_text())
    assert ce.reproduces()


# ---------------------------------------------------------------------------
# Live-state extension and snapshot restores: a state reached by
# delivering on the live state, or on a restored snapshot, equals the
# same path replayed from the root.
# ---------------------------------------------------------------------------

#: ``(states, terminals, replays, digest)`` of exhaustive checks on the
#: serial backend, as the search produced them when it rebuilt every
#: state from the root (restores and extensions must not move them).  The digest covers the outcomes, the outcome
#: witness paths and every counterexample's kind, fingerprint and path
#: (see :func:`_result_digest`).  The violate_atomicity MP check is
#: capped at 3,000 states, the others run to exhaustion.
PINNED_CHECKS = {
    ("SB", "MESI-CXL-MESI", False, 1): (1659, 3, 4303, "ee73cd5cd92217a0"),
    ("SB", "MESI-CXL-MESI", False, 4): (1659, 3, 5280, "ca2662716a35b32d"),
    ("MP", "MESI-CXL-MESI", False, 1): (823, 3, 1900, "648ae637e91536f1"),
    ("MP", "MESI-CXL-MESI", False, 4): (823, 3, 2418, "1bbe10220eb417f8"),
    ("CoRR1", "MESI-CXL-MESI", False, 1): (99, 3, 144, "8f48ced6fd6915a8"),
    ("CoRR1", "MESI-CXL-MESI", False, 4): (99, 3, 213, "be1a614fe73829da"),
    ("SB", "MOESI-MESI-MOESI", False, 1): (994, 3, 2607, "426c61cd45e59e3e"),
    ("SB", "MOESI-MESI-MOESI", False, 4): (994, 3, 3223, "525638cb06b27003"),
    ("MP", "MOESI-MESI-MOESI", False, 1): (560, 3, 1310, "eaf1504ec76fb00a"),
    ("MP", "MOESI-MESI-MOESI", False, 4): (560, 3, 1661, "114e66e8e34f96df"),
    ("CoRR1", "MOESI-MESI-MOESI", False, 1): (70, 3, 102, "9cf1e313af38d9f6"),
    ("CoRR1", "MOESI-MESI-MOESI", False, 4): (70, 3, 151, "a5d2aa8a9867ade3"),
    ("MP", "MESI-CXL-MESI", True, 1): (1255, 0, 3169, "20527200a1a184a4"),
    ("MP", "MESI-CXL-MESI", True, 4): (1255, 0, 3955, "0082c0506507cadc"),
}


def _result_digest(result) -> str:
    summary = {
        "states": result.states, "terminals": result.terminals,
        "replays": result.replays,
        "outcomes": sorted([list(pair) for pair in outcome]
                           for outcome in result.outcomes),
        "outcome_examples": [
            [[list(pair) for pair in outcome], list(path)]
            for outcome, path in result.outcome_examples.items()],
        "counterexamples": [[ce.kind, ce.fingerprint, list(ce.path)]
                            for ce in result.counterexamples],
    }
    text = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest()[:16]


class _ExtensionOracle(CheckModel):
    """Checks every state reached from a base -- the live state or a
    restored snapshot -- against a from-scratch replay of its path."""

    extended = restored = 0
    mismatches: list

    def replay(self, path, base=None, setup=None):
        if base is None:
            return super().replay(path, base, setup)
        if isinstance(base, Snapshot):
            self.restored += 1
        else:
            self.extended += 1
        signature, live = _materialise(
            lambda: super(_ExtensionOracle, self).replay(path, base, setup))
        rebuilt = _materialise(
            lambda: super(_ExtensionOracle, self).replay(path))[0]
        if signature != rebuilt:
            self.mismatches.append(path)
        if isinstance(live, Exception):
            raise live
        return live


def _materialise(replay):
    """``(signature, result)`` of one replay: the fingerprint of the
    state it reached, or the exception it raised."""
    try:
        system, network = replay()
    except Exception as exc:
        return (type(exc).__name__, str(exc)), exc
    return canonical_fingerprint(system, network), (system, network)


def _oracle_model(name, combo, broken):
    plain = litmus_model(name, tuple(combo.split("-")))
    fields = {f.name: getattr(plain, f.name)
              for f in dataclasses.fields(CheckModel) if f.init}
    fields.update(violate_atomicity=broken)
    model = _ExtensionOracle(**fields)
    model.mismatches = []
    return model


@pytest.mark.parametrize(
    "key", list(PINNED_CHECKS),
    ids=lambda k: f"{k[0]}-{k[1]}-{'broken' if k[2] else 'ok'}-{k[3]}")
def test_extended_states_equal_rebuilt_states(key):
    """Every state the search reaches by extending the live state or by
    restoring its parent's snapshot has the fingerprint of the same path
    replayed from the root, and the search reports what rebuilding
    every state reported.  One shard rebuilds only the root."""
    name, combo, broken, shards = key
    model = _oracle_model(name, combo, broken)
    programs = copy.deepcopy(model.programs)
    result = check_model(model, shards=shards, backend="serial",
                         max_states=3_000 if broken else 0)
    assert model.mismatches == []
    assert model.restored == result.restores > 0
    assert model.extended == (result.replays - result.rebuilds
                              - result.restores)
    if shards == 1:
        assert result.rebuilds == 1
    states, terminals, replays, digest = PINNED_CHECKS[key]
    assert (result.states, result.terminals, result.replays) == (
        states, terminals, replays)
    assert _result_digest(result) == digest
    # No rebuild or extension wrote to the shared programs.
    assert [p.name for p in model.programs] == [p.name for p in programs]
    for ran, before in zip(model.programs, programs):
        assert ([dataclasses.astuple(op) for op in ran.ops]
                == [dataclasses.astuple(op) for op in before.ops])


def test_check_reports_rebuilds():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    result = check_litmus("CoRR1", COMBO, max_states=0, metrics=registry)
    assert result.rebuilds == 1  # the root; every sibling is a restore
    assert 0 < result.restores < result.replays
    assert result.to_dict()["rebuilds"] == result.rebuilds
    assert result.to_dict()["restores"] == result.restores
    assert f"{result.rebuilds} rebuilds" in result.summary()
    assert f"{result.restores} restores" in result.summary()
    counters = registry.counter_values("mc.")
    assert counters["mc.rebuilds"] == result.rebuilds
    assert counters["mc.restores"] == result.restores
    assert counters["mc.replays"] == result.replays


# ---------------------------------------------------------------------------
# Traced counterexample replay.
# ---------------------------------------------------------------------------

def test_traced_counterexample_replay_is_the_checked_replay(broken_mp):
    """replay_with_trace() replays what the checker replayed: the
    violate_atomicity model's state fails its invariants again, and the
    tracer saw every message the replay sent, the root's included."""
    invariant_ces = [ce for ce in broken_mp.counterexamples
                     if ce.kind == "invariant"][:3]
    assert len(invariant_ces) == 3
    for ce in invariant_ces:
        system, tracer = ce.replay_with_trace()
        with pytest.raises(ConsistencyViolation):
            invariants.check_all(system)
        assert len(tracer.entries) == system.network.stats.messages
        _checked, network = ce.model.replay(ce.path)
        assert len(tracer.entries) == network.stats.messages


def test_explorer_traced_replay_records_the_root_sends():
    model = CheckModel(combo=COMBO, programs=(
        ThreadProgram("w", [store(X, 1)]),
        ThreadProgram("r", [load(X, "r0")]),
    ))
    system, tracer = replay_traced(model.replay, ())
    assert tracer.entries
    assert len(tracer.entries) == system.network.stats.messages
