"""The benchmark's workloads: what each unit runs and how it is checked.

A *unit* is one cell of a simulation workload (one protocol pairing
running the generated programs) or one exhaustive litmus check.  Each
workload makes its inputs from the seed in :meth:`setup`, before the
first timed unit; :meth:`run` executes one unit, checks its outputs and
returns a :class:`UnitResult`.  A unit that raises or fails a check is
reported as failed; the exception never escapes :meth:`run`.

Everything runs through public entry points: ``repro.workloads.patterns``,
``build_system`` / ``System.run_threads``, ``repro.verify.mc`` and
``repro.verify.axiomatic.enumerate_outcomes``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import pickle
import random
import time
import traceback
from dataclasses import dataclass, field

from repro.cpu.isa import RMW, STORE, ThreadProgram, load_acquire
from repro.sim.config import ClusterConfig, SystemConfig, two_cluster_config
from repro.sim.system import build_system
from repro.verify import invariants
from repro.verify.axiomatic import enumerate_outcomes
from repro.verify.litmus import LITMUS_BY_NAME, materialize
from repro.verify.mc import check_model, litmus_model
from repro.workloads import patterns

#: The eight local x global protocol pairings; both clusters run the
#: local protocol.
PAIRINGS = [(local, glob) for glob in ("CXL", "MESI")
            for local in ("MESI", "MESIF", "MOESI", "RCC")]
#: Cluster 0 is weakly ordered (Arm), cluster 1 is TSO (x86).
MCMS = ("WEAK", "TSO")
CORES_PER_CLUSTER = 4
OPS_PER_THREAD = 2000


@dataclass
class UnitResult:
    """What one unit did, how long it took and whether it was right."""

    key: str
    ok: bool = False
    error: str = ""
    #: Host CPU seconds of the simulation part.
    sim_s: float = 0.0
    #: Host CPU seconds to reach the unit's verdict.
    verdict_s: float = 0.0
    ops: int = 0
    msgs: int = 0
    #: Every simulated ``RunResult`` the unit produced.
    runs: list = field(default_factory=list)
    #: Exact, comparable summary of an exhaustive check.
    check: dict = field(default_factory=dict)
    #: The traceback of a failed unit.
    trace: str = ""

    @property
    def timed_s(self) -> float:
        """CPU seconds of the parts a traced run records."""
        return self.sim_s + (self.verdict_s if self.check else 0.0)

    def digest(self) -> str:
        """sha256 over the pickled simulated results and check summary."""
        payload = pickle.dumps((self.runs, sorted(self.check.items())))
        return hashlib.sha256(payload).hexdigest()[:16]


class UnitFailure(Exception):
    """A unit's output is wrong."""


def _failed(unit: UnitResult, exc: BaseException) -> UnitResult:
    unit.ok = False
    unit.error = f"{type(exc).__name__}: {exc}".splitlines()[0][:300]
    unit.trace = traceback.format_exc()
    return unit


def _recording(tracer, layer: str | None = None):
    """Trace the block (in a span of ``layer``) when ``tracer`` is set."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.recording(layer)


def _thread_mcms(test) -> list[str]:
    """Threads alternate clusters, so their MCMs alternate too."""
    return [MCMS[tid % 2] for tid in range(test.num_threads)]


class SimWorkload:
    """One generated program set run on all eight pairings.

    ``generator`` is a :mod:`repro.workloads.patterns` function and
    ``params`` its knobs.  A subclass's :meth:`final_values` gives,
    for each checked shared line, the values it may end at.
    """

    def __init__(self, name: str, generator, params: dict, seed: int,
                 violate_atomicity: bool = False) -> None:
        self.name = name
        self.generator = generator
        self.params = params
        self.seed = seed
        self.violate_atomicity = violate_atomicity
        self.units = [f"{local}-{glob}-{local}" for local, glob in PAIRINGS]
        self.programs: list[ThreadProgram] = []
        self.allowed: dict[int, set[int]] = {}
        self._systems: dict = {}
        self.generate_s = 0.0

    def _config(self, key: str) -> SystemConfig:
        local, glob, _ = key.split("-")
        return two_cluster_config(local, glob, local, mcm_a=MCMS[0],
                                  mcm_b=MCMS[1],
                                  cores_per_cluster=CORES_PER_CLUSTER,
                                  seed=self.seed)

    def _build(self, key: str):
        return build_system(self._config(key),
                            violate_atomicity=self.violate_atomicity)

    def setup(self) -> None:
        """Generate the programs, then build one system per pairing
        (which synthesizes each pairing's controllers)."""
        started = time.perf_counter()
        threads = 2 * CORES_PER_CLUSTER
        self.programs = [
            ThreadProgram(f"{self.name}.t{tid}", self.generator(
                tid, random.Random(f"{self.name}:{self.seed}:{tid}"),
                OPS_PER_THREAD, num_threads=threads, **self.params))
            for tid in range(threads)
        ]
        self.allowed = self.final_values()
        self.generate_s = time.perf_counter() - started
        self._systems = {key: self._build(key) for key in self.units}

    def run(self, key: str, tracer=None) -> UnitResult:
        """Simulate one pairing, then check the result."""
        unit = UnitResult(key, ops=sum(len(p) for p in self.programs))
        try:
            system = self._systems.pop(key, None) or self._build(key)
            started = time.process_time()
            try:
                with _recording(tracer):
                    result = system.run_threads(self.programs)
            finally:
                unit.sim_s = time.process_time() - started
            unit.runs.append(result)
            unit.msgs = result.messages
            self._verify(system)
            unit.verdict_s = time.process_time() - started
            unit.ok = True
        except Exception as exc:  # a failed unit is counted, never raised
            return _failed(unit, exc)
        return unit

    def _verify(self, system) -> None:
        if not system.quiescent():
            raise UnitFailure("a controller is still busy after the run")
        invariants.check_all(system)
        reader = ThreadProgram("final", [
            load_acquire(addr, reg=f"[{addr}]") for addr in self.allowed])
        final = system.run_threads([reader], placement=[0]).per_core_regs[0]
        for addr, allowed in self.allowed.items():
            value = final[f"[{addr}]"]
            if value not in allowed:
                raise UnitFailure(f"line 0x{addr:x} ends at {value}; "
                                  f"{self.allowed_text(allowed)}")


class RmwWorkload(SimWorkload):
    """Contended atomic increments on a few hot lines.

    Each hot line must end at the number of increments issued to it.
    """

    def __init__(self, seed: int, violate_atomicity: bool = False) -> None:
        super().__init__(
            "xcluster-rmw", patterns.hotspot,
            dict(hot_lines=8, shared_frac=0.5, rmw_frac=0.85, footprint=64),
            seed, violate_atomicity)

    def final_values(self) -> dict[int, set[int]]:
        issued = {patterns.SHARED_BASE + line: 0
                  for line in range(self.params["hot_lines"])}
        for program in self.programs:
            for op in program.ops:
                if op.kind == RMW:
                    issued[op.addr] += op.value
        return {addr: {count} for addr, count in issued.items()}

    @staticmethod
    def allowed_text(allowed) -> str:
        return f"{next(iter(allowed))} increments were issued"


class ReadWorkload(SimWorkload):
    """A shared table read by every thread, with rare stores.

    Each table line must end at 0 or at a value some thread stored.
    """

    def __init__(self, seed: int, violate_atomicity: bool = False) -> None:
        super().__init__(
            "xcluster-read", patterns.read_mostly_shared,
            dict(table_lines=64, shared_frac=0.5, update_frac=0.05,
                 footprint=64),
            seed, violate_atomicity)

    def final_values(self) -> dict[int, set[int]]:
        stored = {patterns.SHARED_BASE + line: {0}
                  for line in range(self.params["table_lines"])}
        for program in self.programs:
            for op in program.ops:
                if op.kind == STORE and op.addr in stored:
                    stored[op.addr].add(op.value)
        return stored

    @staticmethod
    def allowed_text(allowed) -> str:
        return f"no thread stored it (only {len(allowed) - 1} values were)"


class LitmusWorkload:
    """Exhaustive model checks of SB and MP on two pairings.

    Each check must be exhaustive, find no counterexample, and reach
    only outcomes the axiomatic model allows.  Each check also runs
    :data:`WITNESS_RUNS` timed simulations of the same test with
    seeded per-op compute gaps; every outcome they reach must be one
    the exhaustive search found.  The checks do not depend on the
    seed; the witness runs do.
    """

    TESTS = ("SB", "MP")
    COMBOS = (("MESI", "CXL", "MESI"), ("MOESI", "MESI", "MOESI"))
    WITNESS_RUNS = 200
    MAX_GAP_CYCLES = 120

    def __init__(self, seed: int, violate_atomicity: bool = False) -> None:
        self.name = "litmus-check"
        self.seed = seed
        self.violate_atomicity = violate_atomicity
        self.units = [f"{test}@{'-'.join(combo)}"
                      for test in self.TESTS for combo in self.COMBOS]
        self.models: dict = {}
        self.allowed: dict = {}
        self.witnesses: dict = {}
        self.generate_s = 0.0

    def setup(self) -> None:
        """Build the check models, enumerate the allowed outcomes and
        generate the witness runs' programs."""
        started = time.perf_counter()
        for key in self.units:
            name, combo = key.split("@")
            test = LITMUS_BY_NAME[name]
            self.witnesses[key] = [self._witness(key, test, run)
                                   for run in range(self.WITNESS_RUNS)]
            model = litmus_model(name, tuple(combo.split("-")), MCMS)
            self.models[key] = dataclasses.replace(
                model, violate_atomicity=self.violate_atomicity)
        self.generate_s = time.perf_counter() - started
        for key, model in self.models.items():
            test = LITMUS_BY_NAME[key.split("@")[0]]
            self.allowed[key] = enumerate_outcomes(
                list(model.programs), _thread_mcms(test), test.observed_addrs)
        for combo in self.COMBOS:  # synthesize each pairing's controllers
            build_system(SystemConfig(clusters=self._clusters(combo, 1),
                                      global_protocol=combo[1]))

    @staticmethod
    def _clusters(combo, cores: int):
        return tuple(ClusterConfig(cores=cores, protocol=local, mcm=mcm)
                     for local, mcm in zip((combo[0], combo[2]), MCMS))

    def _witness(self, key: str, test, run: int):
        """One timed run's config, programs and placement."""
        rng = random.Random(f"{self.name}:{self.seed}:{key}:{run}")
        programs = materialize(test, _thread_mcms(test))
        for program in programs:
            for op in program.ops:
                op.gap = rng.randrange(self.MAX_GAP_CYCLES)
        cores = (test.num_threads + 1) // 2
        combo = key.split("@")[1].split("-")
        config = SystemConfig(clusters=self._clusters(combo, cores),
                              global_protocol=combo[1],
                              seed=rng.randrange(1 << 30))
        # Threads alternate clusters, as the model checker places them.
        placement = [(tid % 2) * cores + tid // 2
                     for tid in range(test.num_threads)]
        return config, programs, placement

    def run(self, key: str, tracer=None) -> UnitResult:
        """Check one litmus test exhaustively, then run its witnesses."""
        unit = UnitResult(key)
        try:
            started = time.process_time()
            try:
                with _recording(tracer, "mc.frontier"):
                    result = check_model(self.models[key], shards=1,
                                         backend="serial", max_states=0)
            finally:
                unit.verdict_s = time.process_time() - started
            unit.check = {
                "states": result.states, "terminals": result.terminals,
                "replays": result.replays, "max_depth": result.max_depth,
                "truncated": result.truncated,
                "counterexamples": len(result.counterexamples),
                "outcomes": sorted(result.outcomes),
            }
            self._verify_check(key, result)
            self._witness_runs(key, unit, result.outcomes, tracer)
            unit.ok = True
        except Exception as exc:  # a failed unit is counted, never raised
            return _failed(unit, exc)
        return unit

    def _verify_check(self, key: str, result) -> None:
        if result.truncated:
            raise UnitFailure(f"{key}: the search was truncated")
        if result.counterexamples:
            ce = result.counterexamples[0]
            raise UnitFailure(f"{key}: {len(result.counterexamples)} "
                              f"counterexample(s); first: {ce.kind}: "
                              f"{ce.message}")
        if not result.terminals:
            raise UnitFailure(f"{key}: no terminal state")
        escaped = result.outcomes - self.allowed[key]
        if escaped:
            raise UnitFailure(f"{key}: outcomes outside the axiomatic "
                              f"model: {sorted(escaped)}")

    def _witness_runs(self, key: str, unit: UnitResult, reachable,
                      tracer) -> None:
        for config, programs, placement in self.witnesses[key]:
            started = time.process_time()
            try:
                with _recording(tracer):
                    system = build_system(
                        config, violate_atomicity=self.violate_atomicity)
                    result = system.run_threads(programs, placement=placement)
            finally:
                unit.sim_s += time.process_time() - started
            unit.runs.append(result)
            unit.ops += sum(len(p) for p in programs)
            unit.msgs += result.messages
            outcome = {}
            for regs in result.per_core_regs:
                outcome.update(regs)
            outcome = tuple(sorted(outcome.items()))
            if outcome not in reachable:
                raise UnitFailure(f"{key}: a timed run reached {outcome}, "
                                  "which the exhaustive search did not")


WORKLOADS = {
    "xcluster-rmw": RmwWorkload,
    "xcluster-read": ReadWorkload,
    "litmus-check": LitmusWorkload,
}
