"""The picklable unit of model-checking work.

A :class:`CheckModel` is everything a worker needs to rebuild the
system under test from nothing: the protocol combo, the thread
programs, the MCMs and the observed addresses.  States are closures
inside controller objects and cannot cross a process boundary; the
*model* can, so sharded exploration ships models plus delivery paths
and every worker reconstructs states by replay -- stateless model
checking, distributed.

The system runs the *actual implementation*, not a re-model of the
protocol: its network is swapped for an :class:`InterceptNetwork`, so
every sent message lands in an outbox and waits for the search to
choose the next delivery (per-channel FIFO, exactly like the real
fabric).  Because controller continuations are closures, a state
cannot be *copied* cheaply -- a ``copy.deepcopy`` fork of a mid-depth
state costs several times a full replay -- but it can be *rolled back*:
a :class:`~repro.verify.mc.snapshot.Snapshot` writes saved field values
back into the same objects, so the closures stay valid.  Within one
worker a state is therefore reached by extending the live state, by
restoring its parent's snapshot and delivering one choice, or -- for
the root, for work punted from another shard and for counterexample
replay -- by rebuilding the system and replaying the whole path.
Programs are shared, not copied, across rebuilds: a core only reads
its thread's ``Op`` list, so every rebuilt system runs the same
objects.

``violate_atomicity`` switches off the bridge's Rule-II enforcement --
the paper's Fig. 4 failure injection -- so tests can demand that the
checker *finds* the resulting SWMR violation rather than proving
absence only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.protocols.messages import Message
from repro.sim.config import ClusterConfig, SystemConfig
from repro.sim.network import Network
from repro.sim.system import build_system
from repro.verify import invariants
from repro.verify.mc.snapshot import Snapshot


class InterceptNetwork(Network):
    """Network that parks sent messages for explicit delivery choices."""

    def __init__(self, engine, seed=1):
        super().__init__(engine, seed)
        self.outbox: list[Message] = []

    def send(self, msg: Message) -> None:
        self.stats.record(msg)
        self.outbox.append(msg)

    def deliverable(self) -> list[int]:
        """Outbox indices eligible for delivery: per-(src, dst, vnet)
        channels are FIFO, so only the oldest message of each channel
        may be delivered."""
        seen_channels = set()
        eligible = []
        for index, msg in enumerate(self.outbox):
            channel = (msg.src, msg.dst, msg.vnet)
            if channel in seen_channels:
                continue
            seen_channels.add(channel)
            eligible.append(index)
        return eligible

    def deliver(self, index: int) -> None:
        """Deliver (and remove) the outbox message at ``index``."""
        msg = self.outbox.pop(index)
        self.nodes[msg.dst].handle_message(msg)


@dataclass
class CheckModel:
    """Reconstructible specification of one exploration problem.

    Threads alternate clusters: thread *t* runs on core ``t // 2`` of
    cluster ``t % 2``.
    """

    combo: tuple[str, str, str]
    programs: tuple
    mcms: tuple[str, str] = ("SC", "SC")
    observed_addrs: tuple = ()
    violate_atomicity: bool = False

    def system_config(self) -> SystemConfig:
        """The configuration every replay builds its system from: two
        clusters with enough cores for the programs and no cross-cluster
        jitter (the search chooses delivery orders, not the network)."""
        local_a, global_protocol, local_b = self.combo
        cores = max(1, (len(self.programs) + 1) // 2)
        return SystemConfig(
            clusters=(
                ClusterConfig(cores=cores, protocol=local_a, mcm=self.mcms[0]),
                ClusterConfig(cores=cores, protocol=local_b, mcm=self.mcms[1]),
            ),
            global_protocol=global_protocol,
            cross_jitter_ns=0.0,
        )

    def replay(self, path, base=None, setup=None):
        """Materialise the state at the end of ``path``.

        Without ``base`` the system is rebuilt from scratch and the
        whole path is delivered.  ``base`` is either a live ``(base_path,
        system, network)`` state or a
        :class:`~repro.verify.mc.snapshot.Snapshot`, and its path is a
        prefix of ``path``: a snapshot is first restored in place, then
        only the remaining choices are delivered on that graph, which is
        consumed.  Delivery is deterministic, so all three give the same
        state.  ``setup(system, network)`` runs on a rebuilt system
        before any program starts, so it sees every message the system
        sends.

        Returns ``(system, network)``; the intercepted network's outbox
        holds the deliverable messages of the state.
        """
        if base is not None:
            if isinstance(base, Snapshot):
                system, network = base.restore()
                base_path = base.path
            else:
                base_path, system, network = base
            return deliver_path(system, network, path[len(base_path):])
        config = self.system_config()
        system = build_system(config, violate_atomicity=self.violate_atomicity)
        # Swap in the intercepting network: re-register nodes and links.
        old = system.network
        network = InterceptNetwork(system.engine, seed=config.seed)
        network.nodes = old.nodes
        network.links = old.links
        for node in old.nodes.values():
            node.network = network
        system.network = network
        if setup is not None:
            setup(system, network)
        for core, program in zip(self.thread_cores(system), self.programs):
            core.run_program(program, None)
        system.engine.run()
        return deliver_path(system, network, path)

    def thread_cores(self, system) -> list:
        """The core running each thread, in thread order."""
        cores = system.config.clusters[0].cores
        return [system.cores[(tid % 2) * cores + tid // 2]
                for tid in range(len(self.programs))]

    def stuck_threads(self, system) -> int:
        """Threads of ``system`` whose program has not finished."""
        return sum(core.finish_time is None
                   for core in self.thread_cores(system))

    def outcome(self, system) -> tuple:
        """Terminal outcome tuple (registers + observed memory)."""
        outcome = {}
        for core in system.cores:
            outcome.update(core.regs)
        for addr in self.observed_addrs:
            value = invariants._authoritative_value(system, addr)
            outcome[f"[{addr}]"] = value if value is not None else 0
        return tuple(sorted(outcome.items()))

    # -- serialization for regression fixtures -------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation (programs flattened to op dicts)."""
        return {
            "combo": list(self.combo),
            "mcms": list(self.mcms),
            "observed_addrs": list(self.observed_addrs),
            "violate_atomicity": self.violate_atomicity,
            "programs": [
                {
                    "name": program.name,
                    "ops": [
                        {
                            "kind": op.kind, "addr": op.addr,
                            "value": op.value, "reg": op.reg,
                            "fence_kind": op.fence_kind,
                            "deps": list(op.deps), "gap": op.gap,
                        }
                        for op in program.ops
                    ],
                }
                for program in self.programs
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CheckModel":
        """Rebuild a model from :meth:`to_dict` output.

        A payload may name ``placement`` or ``check_invariants`` only at
        the values every model uses (alternating clusters, invariants
        checked); any other value raises ``ValueError``.
        """
        from repro.cpu.isa import Op, ThreadProgram

        if payload.get("placement"):
            raise ValueError("custom thread placement is not supported; "
                             "threads alternate clusters")
        if not payload.get("check_invariants", True):
            raise ValueError("invariant checking cannot be turned off")
        programs = tuple(
            ThreadProgram(entry["name"], [
                Op(kind=op["kind"], addr=op["addr"], value=op["value"],
                   reg=op["reg"], fence_kind=op["fence_kind"],
                   deps=tuple(op["deps"]), gap=op["gap"])
                for op in entry["ops"]
            ])
            for entry in payload["programs"]
        )
        return cls(
            combo=tuple(payload["combo"]),
            programs=programs,
            mcms=tuple(payload["mcms"]),
            observed_addrs=tuple(payload.get("observed_addrs", ())),
            violate_atomicity=payload.get("violate_atomicity", False),
        )


def deliver_path(system, network, path):
    """Deliver ``path``'s outbox choices in order, running the engine to
    quiescence after each; returns ``(system, network)``."""
    for choice in path:
        network.deliver(choice)
        system.engine.run()
    return system, network


def replay_traced(replay, path):
    """Run ``replay(path, setup=...)`` with a message tracer attached.

    The tracer is installed by ``setup``, before any program starts, so
    it records every message the replay sends, the root's included.
    Returns ``(system, tracer)``.
    """
    from repro.sim.trace import MessageTracer

    tracers = []
    system, _network = replay(
        path, setup=lambda _system, network: tracers.append(
            MessageTracer(network)))
    return system, tracers[0]


def litmus_model(name: str, combo, mcms=("SC", "SC")) -> CheckModel:
    """Build the model for one named builtin litmus test.

    ``mcms`` is the per-*cluster* pair; threads alternate clusters
    (T0 -> A, T1 -> B, ...) exactly as :class:`CheckModel` places them,
    so the per-thread MCM list handed to :func:`materialize` is
    expanded the same way.
    """
    from repro.core.spec import canonical_global_name, canonical_local_name
    from repro.verify.litmus import LITMUS_BY_NAME, materialize

    local_a, global_, local_b = combo
    combo = (canonical_local_name(local_a), canonical_global_name(global_),
             canonical_local_name(local_b))
    test = LITMUS_BY_NAME[name]
    thread_mcms = [mcms[tid % 2] for tid in range(test.num_threads)]
    programs = tuple(materialize(test, thread_mcms))
    return CheckModel(combo=tuple(combo), programs=programs,
                      mcms=tuple(mcms),
                      observed_addrs=tuple(test.observed_addrs))
