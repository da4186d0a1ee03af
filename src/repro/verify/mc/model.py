"""The picklable unit of model-checking work.

A :class:`CheckModel` is everything a worker needs to rebuild the
system under test from nothing: the protocol combo, the thread
programs, the MCMs, placement and the observed addresses.  States are
closures inside controller objects and cannot cross a process
boundary; the *model* can, so sharded exploration ships models plus
delivery paths and every worker reconstructs states by replay --
stateless model checking, distributed.  Within one worker the search
keeps the state it last materialised live and extends it in place when
the next path continues it (:meth:`CheckModel.replay`'s ``base``).

``violate_atomicity`` switches off the bridge's Rule-II enforcement --
the paper's Fig. 4 failure injection -- so tests can demand that the
checker *finds* the resulting SWMR violation rather than proving
absence only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.verify.explorer import Explorer, deliver_path


@dataclass
class CheckModel:
    """Reconstructible specification of one exploration problem."""

    combo: tuple[str, str, str]
    programs: tuple
    mcms: tuple[str, str] = ("SC", "SC")
    placement: tuple | None = None
    observed_addrs: tuple = ()
    check_invariants: bool = True
    violate_atomicity: bool = False

    #: Lazily constructed replay engine (never pickled).
    _explorer: Explorer | None = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_explorer"] = None  # rebuilt lazily on the other side
        return state

    def _engine(self) -> Explorer:
        if self._explorer is None:
            self._explorer = Explorer(
                self.combo, list(self.programs),
                placement=list(self.placement) if self.placement else None,
                mcms=self.mcms, observed_addrs=tuple(self.observed_addrs),
                check_invariants=self.check_invariants,
            )
        return self._explorer

    def replay(self, path, base=None, setup=None):
        """Materialise the state at the end of ``path``.

        Without ``base`` the system is rebuilt from scratch and the
        whole path is delivered.  ``base`` is a live ``(base_path,
        system, network)`` state whose ``base_path`` is a prefix of
        ``path``: only the remaining choices are delivered, on that
        live state, which is consumed.  Delivery is deterministic, so
        both give the same state.  ``setup(system, network)`` runs on a
        rebuilt system before any program starts.

        Returns ``(system, network)``; the intercepted network's outbox
        holds the deliverable messages of the state.
        """
        if base is not None:
            base_path, system, network = base
            return deliver_path(system, network, path[len(base_path):])

        def prepare(system, network):
            if self.violate_atomicity:
                for cluster in system.clusters:
                    cluster.bridge.violate_atomicity = True
            if setup is not None:
                setup(system, network)

        system, network = self._engine()._fresh_system(prepare)
        return deliver_path(system, network, path)

    def stuck_threads(self) -> int:
        """Threads not yet complete in the most recently rebuilt system,
        as it stands now (extending it in place advances it)."""
        return self._engine()._done["count"]

    def outcome(self, system) -> tuple:
        """Terminal outcome tuple (registers + observed memory)."""
        return self._engine()._outcome(system)

    # -- serialization for regression fixtures -------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation (programs flattened to op dicts)."""
        return {
            "combo": list(self.combo),
            "mcms": list(self.mcms),
            "placement": list(self.placement) if self.placement else None,
            "observed_addrs": list(self.observed_addrs),
            "check_invariants": self.check_invariants,
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
        """Rebuild a model from :meth:`to_dict` output."""
        from repro.cpu.isa import Op, ThreadProgram

        programs = tuple(
            ThreadProgram(entry["name"], [
                Op(kind=op["kind"], addr=op["addr"], value=op["value"],
                   reg=op["reg"], fence_kind=op["fence_kind"],
                   deps=tuple(op["deps"]), gap=op["gap"])
                for op in entry["ops"]
            ])
            for entry in payload["programs"]
        )
        placement = payload.get("placement")
        return cls(
            combo=tuple(payload["combo"]),
            programs=programs,
            mcms=tuple(payload["mcms"]),
            placement=tuple(placement) if placement else None,
            observed_addrs=tuple(payload.get("observed_addrs", ())),
            check_invariants=payload.get("check_invariants", True),
            violate_atomicity=payload.get("violate_atomicity", False),
        )


def litmus_model(name: str, combo, mcms=("SC", "SC")) -> CheckModel:
    """Build the model for one named builtin litmus test.

    ``mcms`` is the per-*cluster* pair; threads alternate clusters
    (T0 -> A, T1 -> B, ...) exactly as the explorer places them, so the
    per-thread MCM list handed to :func:`materialize` is expanded the
    same way.
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
