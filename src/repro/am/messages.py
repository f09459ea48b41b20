"""Wire-size model for active-message payloads.

The paper's messages carry a destination mail address, a method
selector and often a continuation address; bulk messages carry matrix
blocks.  The byte estimate below drives NIC serialisation and the
receive-buffer occupancy in the network model, so it only needs to be
*consistent*, not exact: scalars cost one 1995-era machine word,
containers cost the sum of their elements plus a small header, and
NumPy arrays cost their true buffer size.

Every remote send is sized, on every backend (bulk routing reads the
size even where no simulated wire is charged), so :func:`payload_nbytes`
puts an exact-``type()`` fast path in front of the general
``isinstance`` chain:

- ``int``, ``float``, ``bool`` and ``None`` cost one word;
- a ``tuple`` or ``list`` sums its elements in a plain loop;
- an ASCII ``str`` costs ``len`` (its UTF-8 length) plus the header;
- an opaque class with a class-level ``WIRE_BYTES`` (mail addresses,
  actor refs, reply targets, group refs) is memoised by type the first
  time the chain sizes one of its instances, so ``WIRE_BYTES`` must be
  a per-class constant.

Everything else — subclasses such as ``TraceCtx``, ``IntEnum`` and
``np.float64``, NumPy arrays and scalars, ``bytes``, sets and dicts —
falls through to the chain.  The fast path resizes nothing: every value
gets exactly the size the chain alone would give it.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.tracectx import TraceCtx

#: Bytes per scalar value (a 1995 machine word).
WORD_BYTES = 4
#: Fixed per-container overhead.
CONTAINER_HEADER_BYTES = 4
#: Maximum recursion depth when sizing nested payloads.
_MAX_DEPTH = 16

#: Exact type -> size for values whose size depends only on their type:
#: the scalars below, plus each ``WIRE_BYTES`` class once first sized.
#: Every entry is a pure function of its key, so sharing the table
#: across runtimes in one process cannot change any size.
_FIXED_BYTES: Dict[type, int] = {
    int: WORD_BYTES,
    float: WORD_BYTES,
    bool: WORD_BYTES,
    type(None): WORD_BYTES,
}


def payload_nbytes(value: Any, _depth: int = 0) -> int:
    """Estimate the wire size of ``value`` in bytes (at least one word)."""
    if _depth > _MAX_DEPTH:
        return WORD_BYTES
    cls = type(value)
    size = _FIXED_BYTES.get(cls)
    if size is not None:
        return size
    if cls is tuple or cls is list:
        _depth += 1
        if _depth > _MAX_DEPTH:
            # Every element is past the depth bound: one word each.
            return CONTAINER_HEADER_BYTES + WORD_BYTES * len(value)
        fixed = _FIXED_BYTES.get
        total = CONTAINER_HEADER_BYTES
        for v in value:
            size = fixed(type(v))
            total += payload_nbytes(v, _depth) if size is None else size
        return total
    if cls is str and value.isascii():
        return CONTAINER_HEADER_BYTES + len(value)
    return _chain_nbytes(value, _depth)


def _chain_nbytes(value: Any, _depth: int) -> int:
    """The general sizer: one ``isinstance`` test per value family."""
    if isinstance(value, TraceCtx):
        # Observability metadata is out-of-band: a NamedTuple, so it
        # must be intercepted before the generic tuple branch below.
        return TraceCtx.WIRE_BYTES
    if value is None or isinstance(value, (bool, int, float)):
        return WORD_BYTES
    if isinstance(value, str):
        return CONTAINER_HEADER_BYTES + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return CONTAINER_HEADER_BYTES + len(value)
    if isinstance(value, np.ndarray):
        return CONTAINER_HEADER_BYTES + int(value.nbytes)
    if isinstance(value, np.generic):
        return int(value.nbytes)
    if isinstance(value, (tuple, list, set, frozenset)):
        return CONTAINER_HEADER_BYTES + sum(
            payload_nbytes(v, _depth + 1) for v in value
        )
    if isinstance(value, dict):
        return CONTAINER_HEADER_BYTES + sum(
            payload_nbytes(k, _depth + 1) + payload_nbytes(v, _depth + 1)
            for k, v in value.items()
        )
    # Opaque runtime objects (mail addresses, descriptors carried in
    # protocol messages) marshal to a few words.
    size_hint = getattr(value, "WIRE_BYTES", None)
    if size_hint is not None:
        size = int(size_hint)
        if getattr(type(value), "WIRE_BYTES", None) is size_hint:
            # A class-level constant: later instances take the fast path.
            _FIXED_BYTES[type(value)] = size
        return size
    return 2 * WORD_BYTES


def message_nbytes(args: tuple, packet_bytes: int) -> int:
    """Total wire size of an AM with ``args``, including the header."""
    fixed = _FIXED_BYTES.get
    total = packet_bytes
    for a in args:
        size = fixed(type(a))
        total += payload_nbytes(a) if size is None else size
    return total
