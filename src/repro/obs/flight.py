"""Flight recorder: a bounded ring buffer of recent runtime events.

Black-box-style postmortems for the model checker: each shard's replay
loop (:func:`repro.verify.mc.engine.explore_shard`) keeps its last-N
replay steps in a :class:`FlightRecorder`, and a controller crash under
some interleaving ships the dump inside its
:class:`~repro.verify.mc.counterexample.Counterexample` (``flight``),
so the postmortem shows what the search was doing just before it.

Everything recorded must be plain JSON types: dumps cross the process
pool's boundary inside shard results and end up inside counterexample
fixtures.
"""

from __future__ import annotations

import time
from collections import deque


class FlightRecorder:
    """Fixed-capacity ring buffer of recent events, oldest evicted first."""

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def record(self, kind: str, **detail) -> None:
        """Append one event; ``detail`` values must be JSON-serializable."""
        self._seq += 1
        event = {"seq": self._seq, "t": round(time.time(), 3), "kind": kind}
        if detail:
            event.update(detail)
        self._events.append(event)

    def dump(self) -> list[dict]:
        """Copy of the buffered events, oldest first."""
        return [dict(event) for event in self._events]

    def clear(self) -> None:
        """Drop all buffered events (the sequence counter keeps going)."""
        self._events.clear()

