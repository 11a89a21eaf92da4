"""Deterministic byte encoding for hashable/signable structures.

Hashes and signatures must be computed over a canonical byte string.
This tiny codec provides unambiguous (length-prefixed, order-preserving)
framing for the field types block headers use.  It is intentionally not
a general serialization library — only what the protocol needs.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Mapping, Tuple

from repro.crypto.hashing import Digest

#: A digest-map entry's node id and digest length, range-checked by ``pack``.
_pack_u32_pair = struct.Struct(">II").pack


def encode_u32(value: int) -> bytes:
    """Unsigned 32-bit big-endian; validates range."""
    if not 0 <= value < 2 ** 32:
        raise ValueError(f"u32 out of range: {value}")
    return value.to_bytes(4, "big")


def encode_u64(value: int) -> bytes:
    """Unsigned 64-bit big-endian; validates range."""
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"u64 out of range: {value}")
    return value.to_bytes(8, "big")


def encode_bytes(value: bytes) -> bytes:
    """Length-prefixed raw bytes."""
    return encode_u32(len(value)) + value


def encode_time(value: float) -> bytes:
    """Simulated timestamps, encoded as micro-slot integers.

    Times in the reproduction are slot numbers (possibly fractional due
    to intra-slot latency); scaling by 10^6 and rounding gives a stable
    integer encoding.
    """
    scaled = int(round(value * 1_000_000))
    if scaled < 0:
        raise ValueError(f"negative time: {value}")
    return encode_u64(scaled)


def encode_digest_map(digests: Mapping[int, Digest]) -> bytes:
    """Encode a node-id -> digest map in ascending node order.

    Ascending order makes the encoding canonical regardless of the
    insertion order of ``A_i`` updates.
    """
    parts: List[bytes] = [encode_u32(len(digests))]
    for node_id in sorted(digests):
        value = digests[node_id].value
        try:
            head = _pack_u32_pair(node_id, len(value))
        except struct.error:
            # Out of range: let ``encode_u32`` name the offending value.
            head = encode_u32(node_id) + encode_u32(len(value))
        parts += (head, value)
    return b"".join(parts)


#: Frames of the header field names (Fig. 2 plus the identity fields),
#: built at import; :func:`encode_fields` frames any other name as met.
_NAME_FRAMES = {
    name: encode_bytes(name.encode("ascii"))
    for name in "version time root digests nonce origin index body signature".split()
}


def encode_fields(fields: Iterable[Tuple[str, bytes]]) -> bytes:
    """Concatenate named pre-encoded fields with name framing.

    Field names participate in the encoding so that two headers with
    coincidentally identical field bytes in different roles can never
    collide.
    """
    parts: List[bytes] = []
    for name, data in fields:
        frame = _NAME_FRAMES.get(name) or encode_bytes(name.encode("ascii"))
        parts += (frame, encode_u32(len(data)), data)
    return b"".join(parts)
