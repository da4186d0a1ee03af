"""Sharded exhaustive model checking with replayable counterexamples.

``repro.verify.mc`` is the repository's explicit-state model checker
(the Murphi substitute): it enumerates every network delivery order of
small systems running the real controllers.  Its modules:

- :mod:`~repro.verify.mc.fingerprint` -- the canonical state walk and
  process-stable fingerprints over it (BLAKE2b over an injective
  encoding; identical under any ``PYTHONHASHSEED`` on any host).
- :mod:`~repro.verify.mc.model` -- :class:`CheckModel`, the picklable
  description from which any worker builds the system behind an
  intercepting network and reconstructs states by replaying delivery
  paths (stateless model checking), or by extending the state it holds
  live when the next path continues it.
- :mod:`~repro.verify.mc.engine` -- :class:`ModelChecker`, the one
  search: a partition-by-hash frontier engine whose waves run serially
  or on the local process pool; shard *k* of *n* owns the states with
  ``fingerprint % n == k``.
- :mod:`~repro.verify.mc.counterexample` -- deduplicated, shrunk,
  JSON-serializable :class:`Counterexample` traces that replay the
  violation byte-identically.

Entry points: :func:`check_model` / :func:`check_litmus` here, or
``python -m repro check --combo L:G:L`` on the command line.  See
``docs/VERIFY.md`` for the sharding discipline and trace format.
"""

from repro.verify.mc.counterexample import (
    KIND_CRASH,
    KIND_DEADLOCK,
    KIND_INVARIANT,
    KIND_OUTCOME,
    Counterexample,
    dedup,
)
from repro.verify.mc.engine import (
    CheckResult,
    ModelChecker,
    check_litmus,
    check_model,
    explore_shard,
)
from repro.verify.mc.fingerprint import (
    canonical_bytes,
    canonical_fingerprint,
    fingerprint_parts,
)
from repro.verify.mc.model import CheckModel, litmus_model

__all__ = [
    "KIND_CRASH",
    "KIND_DEADLOCK",
    "KIND_INVARIANT",
    "KIND_OUTCOME",
    "CheckModel",
    "CheckResult",
    "Counterexample",
    "ModelChecker",
    "canonical_bytes",
    "canonical_fingerprint",
    "check_litmus",
    "check_model",
    "dedup",
    "explore_shard",
    "fingerprint_parts",
    "litmus_model",
]
