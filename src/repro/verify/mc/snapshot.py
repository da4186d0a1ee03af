"""In-place snapshots of one model-checking state.

A state of the search is a live ``(system, intercepted network)``
object graph whose controller continuations are closures over the
graph's own objects: the MSHR op queues, recall and grant callbacks,
room waiters and store-buffer drains all point at cores, L1s, bridges,
ports and transactions by identity.  Copying the graph would have to
copy the closures too.  A :class:`Snapshot` copies nothing the closures
see: it records the *field values* of every mutable object the state
consists of, and :meth:`Snapshot.restore` writes them back into the
*same* objects, so every continuation still points at the right one.

This module owns what a state consists of:

- the engine's ``now`` and ``events_executed`` (the event queue is
  empty at a snapshot, and a restore empties it);
- the network's outbox and traffic counters;
- per core: the program position, statuses, registers, store buffer
  (every entry's flags) and prefetch set;
- per L1: the cache array (sets in LRU order, every line's fields),
  MSHRs with their op queues and parked forwards, room waiters, the RCC
  fill and write-ack queues, hit/miss counters and ``OpStats``;
- per bridge: the CXL cache with each line's directory record, local
  transactions, recalls, evictions, queued requests and room waiters;
  its global port's pending requests, writebacks, snoop queues and
  BIConflict handshakes;
- the home directory's lines, transactions and queues, the DRAM timing
  model and the backing store.

Saving walks only what the state holds (occupied cache sets, live
transactions), so a snapshot of a litmus-scale state is a few hundred
field values.  A snapshot is only taken when the engine is quiescent:
between deliveries, where the search expands a state.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter

#: ``class -> (slot names, getter)`` for the slotted record classes
#: (cache lines, MSHRs, transactions, directory entries).  Every slot is
#: saved, so a field added to one of them is covered without an edit;
#: each has several slots, so the getter returns a tuple.
_SLOT_SPECS: dict = {}


def _slot_spec(cls) -> tuple:
    spec = _SLOT_SPECS.get(cls)
    if spec is None:
        spec = _SLOT_SPECS[cls] = (cls.__slots__, attrgetter(*cls.__slots__))
    return spec


class _Saver:
    """Collects the restore records of one snapshot."""

    __slots__ = ("attrs", "slots", "lists", "maps", "deques", "caches")

    def __init__(self) -> None:
        self.attrs: list = []   # (obj.__dict__, copy)
        self.slots: list = []   # (obj, names, values)
        self.lists: list = []   # (list, copy)
        self.maps: list = []    # (dict or set, copy)
        self.deques: list = []  # (deque, tuple)
        self.caches: list = []  # (CacheArray, occupied-set copy)

    def obj(self, obj) -> None:
        """Save every attribute of a ``__dict__`` object."""
        fields = obj.__dict__
        self.attrs.append((fields, fields.copy()))

    def record(self, obj) -> None:
        """Save every slot of a slotted record object."""
        names, get = _slot_spec(type(obj))
        self.slots.append((obj, names, get(obj)))

    def flat(self, container) -> None:
        """Save a container's members (not what the members hold)."""
        kind = type(container)
        if kind is list:
            self.lists.append((container, container[:]))
        elif kind is deque:
            self.deques.append((container, tuple(container)))
        else:  # dict or set
            self.maps.append((container, container.copy()))

    def records(self, mapping) -> None:
        """Save a ``key -> record`` dict and every record in it."""
        self.maps.append((mapping, mapping.copy()))
        for value in mapping.values():
            self.record(value)

    def queues(self, mapping) -> None:
        """Save a ``key -> deque`` dict and every queue in it."""
        self.maps.append((mapping, mapping.copy()))
        deques = self.deques
        for queue in mapping.values():
            deques.append((queue, tuple(queue)))

    def cache(self, cache) -> None:
        """Save a cache array sparsely: its occupied sets, in LRU order,
        and every resident line with its scratch dict and directory
        record."""
        occupied = cache._occupied
        self.caches.append((cache, occupied.copy()))
        sets = cache._sets
        maps = self.maps
        for index in occupied:
            cache_set = sets[index]
            maps.append((cache_set, cache_set.copy()))
            for line in cache_set.values():
                self.record(line)
                meta = line._meta
                if meta is not None:
                    maps.append((meta, meta.copy()))
                    rec = meta.get("dir")
                    if rec is not None:
                        self.record(rec)
                        maps.append((rec.sharers, rec.sharers.copy()))

    def op_stats(self, stats) -> None:
        if stats is None:
            return
        self.obj(stats)
        self.flat(stats.miss_bins)
        for entry in stats.miss_bins.values():
            self.flat(entry)


def _save_core(saver: _Saver, core) -> None:
    saver.obj(core)
    saver.flat(core.status)
    saver.flat(core.regs)
    saver.flat(core._prefetched)
    saver.flat(core.sb)
    for entry in core.sb:
        saver.record(entry)


def _save_l1(saver: _Saver, l1) -> None:
    saver.obj(l1)
    saver.cache(l1.cache)
    saver.op_stats(l1.stats)
    mshrs = getattr(l1, "mshrs", None)
    if mshrs is None:  # RccL1: read-fill and write-ack queues
        saver.queues(l1._pending)
        saver.queues(l1._write_cbs)
        return
    saver.records(mshrs)
    for mshr in mshrs.values():
        saver.flat(mshr.ops)
        saver.flat(mshr.pending_fwds)
    saver.queues(l1._room_waiters)


def _save_bridge(saver: _Saver, bridge) -> None:
    saver.obj(bridge)
    saver.cache(bridge.cache)
    saver.op_stats(bridge.stats)
    saver.records(bridge.busy)
    saver.records(bridge.recalls)
    saver.flat(bridge.evicting)
    saver.queues(bridge.pq_local)
    saver.queues(bridge._room_waiters)
    if bridge.local_backing is not None:
        saver.flat(bridge.local_backing._values)
    port = bridge.port
    saver.obj(port)
    saver.records(port.pending)
    saver.records(port.wb)
    saver.queues(port.snoop_q)
    saver.flat(port.active_snoop)
    saver.flat(port.snoop_spans)
    conflicts = getattr(port, "conflict_state", None)
    if conflicts is not None:  # CxlPort: BIConflict handshakes
        saver.flat(conflicts)
        for state in conflicts.values():
            saver.flat(state)


def _save_home(saver: _Saver, home) -> None:
    saver.obj(home)
    saver.records(home.lines)
    for line in home.lines.values():
        saver.flat(line.sharers)
    busy = getattr(home, "busy", None)
    if busy is not None:  # the blocking DCOH
        saver.records(busy)
        for txn in busy.values():
            saver.flat(txn.targets)
    saver.queues(home.queues)
    saver.obj(home.memory)
    saver.flat(home.backing._values)


class Snapshot:
    """The state at the end of ``path``, restorable in place.

    Holds its ``(system, network)`` graph: :meth:`restore` rewinds that
    graph, whatever it went through since, to the saved state and
    returns it.  Restoring consumes nothing, so one snapshot serves
    every sibling of the state it was taken at.
    """

    __slots__ = ("path", "system", "network", "_now", "_events", "_saver")

    def __init__(self, path: tuple, system, network) -> None:
        engine = system.engine
        if engine.pending():
            raise ValueError(
                f"snapshot of a non-quiescent engine ({engine.pending()} "
                "events queued)")
        self.path = path
        self.system = system
        self.network = network
        self._now = engine.now
        self._events = engine.events_executed
        saver = self._saver = _Saver()
        saver.flat(network.outbox)
        stats = network.stats
        saver.obj(stats)
        saver.flat(stats.per_vnet)
        saver.flat(stats.per_kind)
        for cluster in system.clusters:
            for core in cluster.cores:
                _save_core(saver, core)
            for l1 in cluster.l1s:
                _save_l1(saver, l1)
            _save_bridge(saver, cluster.bridge)
        _save_home(saver, system.home)

    def restore(self) -> tuple:
        """Write the saved state back into its graph; ``(system,
        network)``.

        Events a failed delivery left queued are dropped first, so a
        restore also recovers a graph whose last delivery raised.
        """
        system = self.system
        engine = system.engine
        if engine.pending():
            _drop_queued(engine)
        engine.now = self._now
        engine.events_executed = self._events
        saver = self._saver
        for fields, saved in saver.attrs:
            fields.update(saved)
        for obj, names, values in saver.slots:
            for name, value in zip(names, values):
                setattr(obj, name, value)
        for members, saved in saver.lists:
            members[:] = saved
        for members, saved in saver.maps:
            members.clear()
            members.update(saved)
        for members, saved in saver.deques:
            members.clear()
            members.extend(saved)
        for cache, saved in saver.caches:
            occupied = cache._occupied
            if occupied != saved:
                sets = cache._sets
                for index in occupied - saved:
                    sets[index].clear()
                occupied.clear()
                occupied.update(saved)
        return system, self.network


def _drop_queued(engine) -> None:
    """Empty the event queue of any engine backend."""
    backend = engine.backend
    if backend == "python":
        engine._buckets.clear()
        engine._ticks.clear()
    elif backend == "legacy":
        engine._queue.clear()
    else:  # compiled: pop without running
        while engine.pending():
            engine._pop()
