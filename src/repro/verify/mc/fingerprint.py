"""Process-stable canonical state fingerprints.

The legacy DFS explorer fingerprints states with ``hash(parts)``, which
is perfectly fine inside one process but useless across a worker fleet:
``str.__hash__`` is salted by ``PYTHONHASHSEED``, so two workers would
disagree about every fingerprint -- and partition-by-hash sharding
routes states by ``fingerprint % shards``, which must mean the same
thing on every host.

This module derives a 64-bit fingerprint from the same canonical state
walk (:func:`repro.verify.explorer.state_parts`) via a keyed-nothing
BLAKE2b over a deterministic byte encoding.  Guarantees:

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

from repro.verify.explorer import state_parts

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
