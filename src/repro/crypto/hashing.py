"""Digest primitives.

The paper fixes the hash width ``f_H`` at 256 bits (Fig. 2).  We use
SHA-256 and allow truncation to narrower widths for experiments; a
:class:`Digest` remembers its width so size accounting (Eqs. 2-3) stays
bit-exact even with non-default widths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Union

#: The paper's digest width f_H (bits).
DIGEST_BITS_DEFAULT = 256

BytesLike = Union[bytes, bytearray, memoryview]


@dataclass(frozen=True)
class Digest:
    """An immutable hash value with explicit bit width.

    Attributes
    ----------
    value:
        Raw digest bytes (already truncated to ``bits``).
    bits:
        Width in bits; always a multiple of 8 here.
    """

    value: bytes
    bits: int = DIGEST_BITS_DEFAULT

    def __post_init__(self) -> None:
        if self.bits <= 0 or self.bits % 8 != 0:
            raise ValueError(f"digest width must be a positive multiple of 8, got {self.bits}")
        if len(self.value) != self.bits // 8:
            raise ValueError(
                f"digest value has {len(self.value)} bytes, expected {self.bits // 8}"
            )

    @property
    def size_bits(self) -> int:
        """Width in bits (alias used by size accounting)."""
        return self.bits

    def hex(self) -> str:
        """Lower-case hex rendering of the digest."""
        return self.value.hex()

    def short(self, chars: int = 8) -> str:
        """Abbreviated hex form for logs and reprs."""
        return self.value.hex()[:chars]

    def leading_zero_bits(self) -> int:
        """Number of leading zero bits — used by the nonce puzzle."""
        return self.bits - int.from_bytes(self.value, "big").bit_length()

    def __int__(self) -> int:
        return int.from_bytes(self.value, "big")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Digest({self.short()}…/{self.bits}b)"


def frame_fields(fields: Iterable[BytesLike]) -> bytes:
    """Concatenate ``fields``, each behind its 4-byte big-endian length.

    The one length-prefixed framing under every multi-field hash: the
    prefixes keep e.g. ``(b"ab", b"c")`` and ``(b"a", b"bc")`` apart.
    Framing is concatenative — ``frame_fields(a + b)`` equals
    ``frame_fields(a) + frame_fields(b)`` — so a caller hashing many
    tuples with a common head frames the head once.
    """
    parts: List[BytesLike] = []
    for field in fields:
        size = len(field) if type(field) is bytes else memoryview(field).nbytes
        parts.append(size.to_bytes(4, "big"))
        parts.append(field)
    return b"".join(parts)


def hash_bytes(data: BytesLike, bits: int = DIGEST_BITS_DEFAULT) -> Digest:
    """SHA-256 of ``data`` truncated to ``bits`` bits.

    The only place a digest is built around the constructor: the slice
    of a fresh 32-byte output has the right length by construction, so
    the length check is not re-run.  The width check is — by comparison,
    and a bad width goes to the constructor for its ``ValueError``.
    """
    raw = hashlib.sha256(data).digest()
    if bits <= 0 or bits % 8 or bits > 256:
        return Digest(raw[: bits // 8], bits)
    digest = object.__new__(Digest)
    object.__setattr__(digest, "value", raw[: bits // 8])
    object.__setattr__(digest, "bits", bits)
    return digest


def hash_fields(fields: Iterable[BytesLike], bits: int = DIGEST_BITS_DEFAULT) -> Digest:
    """Hash a sequence of byte fields behind :func:`frame_fields` framing.

    Header digests (Eq. 5/6) hash several variable-length fields
    together, so the pre-image must be unambiguous.
    """
    return hash_bytes(frame_fields(fields), bits)
