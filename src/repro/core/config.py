"""Protocol constants and derived sizes.

Field widths follow Fig. 2 of the paper: Version, Time and Nonce are 32
bits; Root and Signature are 256 bits; the Digests field is
``f_H × (n + 1)`` for a node with ``n`` neighbours; the body is a
constant ``C`` bits.  Eq. (3) defines the constant header part

    f_c = f_v + f_t + f_H + f_n + f_s

and Eq. (2) the full block size

    f_i = f_c + f_H (|N(i)| + 1) + C.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.metrics.units import mb_to_bits


@dataclass(frozen=True)
class ProtocolConfig:
    """All tunables of a 2LDAG deployment.

    Attributes
    ----------
    version_bits, time_bits, nonce_bits:
        ``f_v``, ``f_t``, ``f_n`` — 32 bits each (Fig. 2).
    hash_bits:
        ``f_H`` — digest width, 256 bits.
    signature_bits:
        ``f_s`` — 256 bits.
    body_bits:
        ``C`` — block body size; the paper sweeps C ∈ {0.1, 0.5, 1} MB.
    gamma:
        Number of tolerable malicious nodes; consensus requires a path
        through γ+1 distinct nodes.
    reply_timeout:
        τ — how long a validator waits for RPY_CHILD (sim time).
    puzzle_difficulty_bits:
        Leading-zero-bits difficulty of the Eq. (5) nonce puzzle
        (0 disables the search in large sweeps).
    protocol_version:
        Value of the Version header field.
    """

    version_bits: int = 32
    time_bits: int = 32
    nonce_bits: int = 32
    hash_bits: int = 256
    signature_bits: int = 256
    body_bits: int = mb_to_bits(0.5)
    gamma: int = 16
    reply_timeout: float = 0.5
    puzzle_difficulty_bits: int = 0
    protocol_version: int = 1

    def __post_init__(self) -> None:
        if self.hash_bits <= 0 or self.hash_bits % 8:
            raise ValueError(f"hash_bits must be a positive multiple of 8, got {self.hash_bits}")
        if self.body_bits < 0:
            raise ValueError(f"body_bits must be non-negative, got {self.body_bits}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.reply_timeout <= 0:
            raise ValueError(f"reply_timeout must be positive, got {self.reply_timeout}")

    # -- derived sizes (Eqs. 2-3) ------------------------------------------------
    @property
    def constant_header_bits(self) -> int:
        """``f_c`` of Eq. (3)."""
        return (
            self.version_bits
            + self.time_bits
            + self.hash_bits
            + self.nonce_bits
            + self.signature_bits
        )

    def digests_field_bits(self, neighbor_count: int) -> int:
        """Size of the Digests field: ``f_H × (n + 1)``."""
        if neighbor_count < 0:
            raise ValueError("neighbor_count must be non-negative")
        return self.hash_bits * (neighbor_count + 1)

    def header_bits(self, neighbor_count: int) -> int:
        """Full header size ``f_c + f_H (n + 1)``."""
        return self.constant_header_bits + self.digests_field_bits(neighbor_count)

    def block_bits(self, neighbor_count: int) -> int:
        """Eq. (2): full block size ``f_i``."""
        return self.header_bits(neighbor_count) + self.body_bits

    @property
    def digest_message_bits(self) -> int:
        """Wire size of a digest push to a neighbour (one hash)."""
        return self.hash_bits

    def consensus_quorum(self) -> int:
        """Distinct nodes a PoP path must traverse: γ + 1."""
        return self.gamma + 1

    # -- variants ------------------------------------------------------------
    def with_gamma(self, gamma: int) -> "ProtocolConfig":
        """Copy with a different malicious-tolerance γ (Figs. 8-9)."""
        return replace(self, gamma=gamma)

    @classmethod
    def paper_defaults(cls, gamma: Optional[int] = None, body_mb: float = 0.5) -> "ProtocolConfig":
        """The §VI settings: f_H=f_s=256, f_v=f_t=f_n=32, C=0.5 MB."""
        config = cls(body_bits=mb_to_bits(body_mb))
        if gamma is not None:
            config = config.with_gamma(gamma)
        return config
