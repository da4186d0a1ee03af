"""Explicit-state exploration of the implementation (Murphi substitute).

Small two-cluster scenarios are exhaustively explored over all network
delivery orders.  Invariants must hold in *every* reachable state, no
state may deadlock, and terminal outcomes must fall inside the
axiomatic model's allowed set.
"""

import pytest

from repro.cpu.isa import ThreadProgram, load, store
from repro.verify.axiomatic import enumerate_outcomes
from repro.verify.litmus import MP, SB, materialize
from repro.verify.mc import CheckModel, check_model
from repro.verify.mc.model import replay_traced

X, Y = 0x10, 0x11
COMBO = ("MESI", "CXL", "MESI")


def _check(combo, programs, mcms=("SC", "SC"), observed_addrs=(),
           max_states=5_000, **model_fields):
    model = CheckModel(combo=combo, programs=tuple(programs), mcms=mcms,
                       observed_addrs=observed_addrs, **model_fields)
    return check_model(model, max_states=max_states)


def test_single_writer_reader_exhaustive():
    programs = [
        ThreadProgram("w", [store(X, 1)]),
        ThreadProgram("r", [load(X, "r0")]),
    ]
    result = _check(COMBO, programs)
    assert result.ok, result.counterexamples[:1]
    assert not result.truncated
    assert result.outcomes == {(("r0", 0),), (("r0", 1),)}
    assert result.states > 10
    assert result.states == 60


def test_write_write_race_exhaustive():
    programs = [
        ThreadProgram("a", [store(X, 1)]),
        ThreadProgram("b", [store(X, 2)]),
    ]
    result = _check(COMBO, programs, observed_addrs=(X,))
    assert result.ok, result.counterexamples[:1]
    assert result.outcomes == {((f"[{X}]", 1),), ((f"[{X}]", 2),)}
    assert result.states == 66


#: Exhaustive MP state counts per combo.
MP_STATES = {
    ("MESI", "CXL", "MESI"): 823,
    ("MESI", "CXL", "MOESI"): 823,
    ("MESI", "MESI", "MESI"): 560,
}


@pytest.mark.parametrize("combo", list(MP_STATES), ids=lambda c: "-".join(c))
def test_mp_outcomes_subset_of_axiomatic(combo):
    mcms = ["SC", "SC"]
    programs = materialize(MP, mcms)
    allowed = enumerate_outcomes(programs, mcms, MP.observed_addrs)
    result = _check(combo, materialize(MP, mcms), max_states=4_000)
    assert not result.counterexamples, result.counterexamples[:1]
    assert result.terminals > 0
    assert result.outcomes <= allowed
    assert not any(MP.matches_forbidden(dict(o)) for o in result.outcomes)
    assert result.ok
    assert result.states == MP_STATES[combo]


def test_sb_with_tso_store_buffers_explored():
    mcms = ["TSO", "TSO"]
    programs = materialize(SB, mcms)
    allowed = enumerate_outcomes(programs, mcms)
    result = _check(COMBO, materialize(SB, mcms), mcms=("TSO", "TSO"),
                    max_states=4_000)
    assert not result.counterexamples, result.counterexamples[:1]
    assert result.outcomes <= allowed
    assert result.ok
    assert result.states == 1659


def test_rule2_violation_found_by_exploration():
    """With Rule II disabled, exhaustive search cannot miss the breakage:
    an invariant violation, a deadlock, or an outright controller crash
    (the checker records a crash as a counterexample, never raises)."""
    programs = [
        ThreadProgram("r0", [load(X, "w0"), load(X, "a")]),
        ThreadProgram("w", [load(X, "w1"), store(X, 1), store(X, 2)]),
    ]
    result = _check(COMBO, programs, max_states=3_000,
                    violate_atomicity=True)
    assert result.counterexamples, \
        "Rule-II violation survived exhaustive search"
    assert not result.ok


def test_exploration_is_deterministic():
    programs = [
        ThreadProgram("a", [store(X, 1), load(Y, "r0")]),
        ThreadProgram("b", [store(Y, 1), load(X, "r1")]),
    ]
    results = [_check(COMBO, programs, max_states=3_000) for _ in range(2)]
    assert results[0].states == results[1].states
    assert results[0].outcomes == results[1].outcomes
    assert results[0].ok
    assert results[0].states == 1659


def test_replay_with_trace_reconstructs_interleaving():
    programs = [
        ThreadProgram("w", [store(X, 1)]),
        ThreadProgram("r", [load(X, "r0")]),
    ]
    model = CheckModel(combo=COMBO, programs=tuple(programs))
    result = check_model(model, max_states=5_000)
    assert result.ok
    # Replay an arbitrary prefix deterministically, twice.
    path = (0, 0, 0)
    system1, tracer1 = replay_traced(model.replay, path)
    system2, tracer2 = replay_traced(model.replay, path)
    log1 = [(e.msg_kind, e.src, e.dst) for e in tracer1.entries]
    log2 = [(e.msg_kind, e.src, e.dst) for e in tracer2.entries]
    assert log1 == log2
    assert tracer1.timeline() == tracer2.timeline()


def test_contended_atomics_exhaustive():
    """Both clusters increment one line: every delivery order -- including
    the BIConflict interleavings -- must preserve both increments."""
    from repro.cpu.isa import rmw

    programs = [
        ThreadProgram("a", [rmw(X, 1, "ra")]),
        ThreadProgram("b", [rmw(X, 1, "rb")]),
    ]
    result = _check(COMBO, programs, observed_addrs=(X,), max_states=8_000)
    assert not result.counterexamples, result.counterexamples[:1]
    assert result.terminals > 0
    for outcome in result.outcomes:
        values = dict(outcome)
        assert values[f"[{X}]"] == 2, outcome  # no lost update, ever
        assert sorted((values["ra"], values["rb"])) == [0, 1], outcome
    assert result.ok
    assert result.states == 66


def test_upgrade_conflict_handshake_exhaustive():
    """Both clusters read (S everywhere) then atomically increment: the
    upgrades race and the BIConflict handshake paths are explored
    exhaustively, not just sampled."""
    from repro.cpu.isa import rmw

    programs = [
        ThreadProgram("a", [load(X, "la"), rmw(X, 1, "ra")]),
        ThreadProgram("b", [load(X, "lb"), rmw(X, 1, "rb")]),
    ]
    result = _check(COMBO, programs, observed_addrs=(X,), max_states=30_000)
    assert not result.counterexamples, result.counterexamples[:1]
    for outcome in result.outcomes:
        values = dict(outcome)
        assert values[f"[{X}]"] == 2, outcome
        assert sorted((values["ra"], values["rb"])) == [0, 1], outcome
    assert result.states > 150  # the handshake branches were explored
    assert result.ok
    assert result.states == 230
