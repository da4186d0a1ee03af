"""Process-stable canonical state fingerprints.

:func:`state_parts` walks one (system, intercepted network) state into
a canonical tree of primitives.  Python's ``hash`` of that tree would
be useless across a worker fleet: ``str.__hash__`` is salted by
``PYTHONHASHSEED``, so two workers would disagree about every
fingerprint -- and partition-by-hash sharding routes states by
``fingerprint % shards``, which must mean the same thing on every host.

This module therefore derives a 64-bit fingerprint from the state walk
via a keyed-nothing BLAKE2b over a deterministic byte encoding.
Guarantees:

- identical states produce identical fingerprints in any process, on
  any host, under any ``PYTHONHASHSEED``;
- the encoding is injective over the primitive types the state walk
  emits (ints, strings, bools, None, floats, nested tuples), so two
  different part trees cannot collide by construction -- only by the
  64-bit birthday bound, negligible at reachable state counts.

:func:`canonical_bytes` walks the exact types the state walk emits
(tuples, lists, ints, strs, bools, None) on a fast path that reuses the
encoded bytes of recent ``str``/``int`` leaves, and hands every other
value to :func:`_encode`, the reference encoder.  Its output is
byte-identical to :func:`_encode`'s, so fingerprints and the
``fp % shards`` routing do not depend on which path encoded a state.
"""

from __future__ import annotations

import hashlib

#: Fingerprint width in bytes (64-bit: birthday-safe to ~10^9 states).
DIGEST_BYTES = 8


def _encode(value, out: list) -> None:
    """Append an injective byte encoding of ``value`` to ``out``.

    Each primitive is tagged with a type byte and length-delimited, so
    concatenations cannot be confused (e.g. ``("ab", "c")`` vs
    ``("a", "bc")``).  Containers are encoded recursively; dicts and
    sets are sorted first so representation order never leaks in.
    """
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
            _encode(item, out)
        out.append(b")")
    elif isinstance(value, (set, frozenset)):
        out.append(b"{")
        for item in sorted(value, key=repr):
            _encode(item, out)
        out.append(b"}")
    elif isinstance(value, dict):
        out.append(b"[")
        for key in sorted(value, key=repr):
            _encode(key, out)
            _encode(value[key], out)
        out.append(b"]")
    else:
        raise TypeError(
            f"state parts must be primitives/containers, got "
            f"{type(value).__name__}: {value!r}")


#: Entries each leaf cache may hold; past it, new leaves are encoded
#: but not remembered.
LEAF_CACHE_LIMIT = 1 << 14

_STR_LEAVES: dict[str, bytes] = {}
_INT_LEAVES: dict[int, bytes] = {}


def _str_leaf(value: str) -> bytes:
    data = value.encode("utf-8")
    encoded = b"s%d:%s" % (len(data), data)
    if len(_STR_LEAVES) < LEAF_CACHE_LIMIT:
        _STR_LEAVES[value] = encoded
    return encoded


def _int_leaf(value: int) -> bytes:
    text = str(value).encode("ascii")
    encoded = b"i%d:%s" % (len(text), text)
    if len(_INT_LEAVES) < LEAF_CACHE_LIMIT:
        _INT_LEAVES[value] = encoded
    return encoded


def _encode_fast(value, out: list) -> None:
    """:func:`_encode`, dispatching on exact type.

    Subclasses of ``int``/``str``/``tuple`` and every other type go to
    :func:`_encode`: only an exact type is guaranteed to encode the way
    the cached leaf bytes say (``True`` is an ``int`` equal to ``1``).
    """
    kind = type(value)
    if kind is not tuple and kind is not list:
        _encode(value, out)
        return
    out.append(b"(")
    for item in value:
        kind = type(item)
        if kind is int:
            out.append(_INT_LEAVES.get(item) or _int_leaf(item))
        elif kind is str:
            out.append(_STR_LEAVES.get(item) or _str_leaf(item))
        elif kind is tuple or kind is list:
            _encode_fast(item, out)
        elif item is None:
            out.append(b"N")
        elif kind is bool:
            out.append(b"T" if item else b"F")
        else:
            _encode(item, out)
    out.append(b")")


def canonical_bytes(parts) -> bytes:
    """Deterministic, injective byte encoding of a part tree."""
    out: list = []
    _encode_fast(parts, out)
    return b"".join(out)


def fingerprint_parts(parts) -> int:
    """64-bit process-stable fingerprint of a part tree."""
    digest = hashlib.blake2b(canonical_bytes(parts),
                             digest_size=DIGEST_BYTES).digest()
    return int.from_bytes(digest, "big")


def canonical_fingerprint(system, network) -> int:
    """Fingerprint one live (system, intercepted network) state."""
    return fingerprint_parts(state_parts(system, network))


# ---------------------------------------------------------------------------
# The canonical state walk.
# ---------------------------------------------------------------------------

def _rec_fp(rec):
    return (rec.owner, rec.owner_kind, tuple(sorted(rec.sharers)), rec.f_holder)


def state_parts(system, network) -> tuple:
    """Canonical nested-tuple digest of one (system, outbox) state.

    Everything observable that distinguishes two protocol states is
    flattened to primitives (ints, strings, bools, None) in a fixed
    order: cache lines, MSHRs, bridge transactions, port pending sets,
    home directory, core registers/store buffers, and the in-flight
    messages grouped per FIFO channel *preserving order* within the
    channel.  :func:`canonical_fingerprint` hashes these parts.
    """
    parts = []
    for cluster in system.clusters:
        for l1 in cluster.l1s:
            lines = tuple(sorted(
                (line.addr, line.state, line.data, line.dirty)
                for line in l1.cache.lines()
            ))
            mshrs = tuple(sorted(
                (addr, mshr.txn, mshr.have_data, mshr.have_grant,
                 mshr.grant_state, mshr.data, len(mshr.ops))
                for addr, mshr in getattr(l1, "mshrs", {}).items()
            ))
            parts.append((l1.node_id, lines, mshrs))
        bridge = cluster.bridge
        lines = tuple(sorted(
            (line.addr, line.state, line.data, line.dirty,
             line.meta.get("stale", False), _rec_fp(bridge.dir_record(line)))
            for line in bridge.cache.lines()
        ))
        busy = tuple(sorted(
            (addr, txn.kind, txn.requester, txn.phase, txn.acks_needed,
             txn.acks_got, txn.owner_forwarded, txn.was_sharer)
            for addr, txn in bridge.busy.items()
        ))
        recalls = tuple(sorted(
            (addr, recall.mode, recall.acks_needed, recall.acks_got)
            for addr, recall in bridge.recalls.items()
        ))
        pq = tuple(sorted(
            (addr, tuple(m.kind for m in queue))
            for addr, queue in bridge.pq_local.items()
        ))
        port = bridge.port
        pending = tuple(sorted(
            (addr, p.want, p.grant_seen, p.grant_state, p.data,
             p.acks_needed, p.acks_got)
            for addr, p in port.pending.items()
        ))
        wbs = tuple(sorted(
            (addr, w.held_snoop.kind if w.held_snoop else None)
            for addr, w in port.wb.items()
        ))
        snoops = tuple(sorted(
            (addr, tuple(m.kind for m in queue))
            for addr, queue in port.snoop_q.items()
        ))
        active = tuple(sorted(
            (addr, msg.kind) for addr, msg in port.active_snoop.items()
        ))
        conflict = tuple(sorted(
            (addr, state["snoop"].kind, state["granted"])
            for addr, state in getattr(port, "conflict_state", {}).items()
        ))
        parts.append((bridge.node_id, lines, busy, recalls, pq,
                      tuple(sorted(bridge.evicting)), pending, wbs, snoops,
                      active, conflict))
    home = system.home
    home_lines = tuple(sorted(
        (addr, line.state, line.owner, tuple(sorted(line.sharers)),
         getattr(line, "data_pending", False))
        for addr, line in home.lines.items()
    ))
    home_busy = tuple(sorted(
        (addr, txn.kind, txn.requester, tuple(sorted(txn.targets)))
        for addr, txn in getattr(home, "busy", {}).items()
    ))
    home_queue = tuple(sorted(
        (addr, tuple(entry[0].kind if isinstance(entry, tuple) else entry.kind
                     for entry in queue))
        for addr, queue in home.queues.items()
    ))
    parts.append(("home", home_lines, home_busy, home_queue,
                  tuple(sorted(system.backing.snapshot().items()))))
    for core in system.cores:
        parts.append((
            core.core_id, tuple(core.status),
            tuple((e.op_index, e.addr, e.value, e.draining) for e in core.sb),
            tuple(sorted(core.regs.items())),
        ))
    # In-flight messages, grouped per FIFO channel *preserving order*
    # within the channel (order across channels is immaterial).
    channels: dict = {}
    for msg in network.outbox:
        key = (msg.src, msg.dst, msg.vnet)
        channels.setdefault(key, []).append(
            (msg.kind, msg.addr, msg.meta, msg.data, msg.acks,
             msg.extra.get("req"), msg.extra.get("inv", False),
             msg.extra.get("kept"), msg.extra.get("dirty", False))
        )
    parts.append(tuple(sorted(
        (key, tuple(entries)) for key, entries in channels.items()
    )))
    return tuple(parts)
