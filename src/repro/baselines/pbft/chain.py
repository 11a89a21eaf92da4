"""The replicated chain each PBFT replica stores.

Blocks are chained by header hash; every replica holds the full chain
(the storage burden Fig. 7 measures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.crypto.hashing import Digest, hash_fields

#: Bits of chain-block metadata besides the payload: previous-hash (256),
#: proposer id (32), sequence (64), timestamp (32), signature (256).
CHAIN_HEADER_BITS = 256 + 32 + 64 + 32 + 256


@dataclass(frozen=True)
class ChainBlock:
    """One committed block of the PBFT chain.

    ``payload_bits`` is the client data size (the IoT block body ``C``
    plus its application header); the consensus metadata adds
    :data:`CHAIN_HEADER_BITS`.
    """

    sequence: int
    proposer: int
    payload_seed: bytes
    payload_bits: int
    previous: Optional[Digest]

    def digest(self) -> Digest:
        """Hash chaining this block to its predecessor."""
        return hash_fields(
            [
                self.sequence.to_bytes(8, "big"),
                self.proposer.to_bytes(4, "big"),
                self.payload_seed,
                (self.previous.value if self.previous is not None else b""),
            ]
        )

    @property
    def size_bits(self) -> int:
        """Stored size: payload plus chain metadata."""
        return self.payload_bits + CHAIN_HEADER_BITS


class Blockchain:
    """An append-only hash-linked chain.

    The head's digest is kept: each block is hashed once, when it is
    appended, and a block is frozen, so the kept value is what hashing
    the head again would return.  ``append`` still compares every new
    block's ``previous`` against it.
    """

    def __init__(self) -> None:
        self._blocks: List[ChainBlock] = []
        self._head_digest: Optional[Digest] = None

    def append(self, block: ChainBlock) -> None:
        """Append after validating sequence and hash linkage."""
        if block.sequence != len(self._blocks):
            raise ValueError(
                f"sequence gap: got {block.sequence}, expected {len(self._blocks)}"
            )
        if block.previous != self._head_digest:
            raise ValueError(f"previous-hash mismatch at sequence {block.sequence}")
        self._blocks.append(block)
        self._head_digest = block.digest()

    @property
    def height(self) -> int:
        """Number of committed blocks."""
        return len(self._blocks)

    @property
    def head(self) -> Optional[ChainBlock]:
        """Latest block, if any."""
        return self._blocks[-1] if self._blocks else None

    def block_at(self, sequence: int) -> ChainBlock:
        """Block with the given sequence number."""
        return self._blocks[sequence]

    def size_bits(self) -> int:
        """Total stored bits — every replica pays this in full."""
        return sum(b.size_bits for b in self._blocks)

    def tip_digest(self) -> Optional[Digest]:
        """Digest of the head block (``None`` for an empty chain), as kept."""
        return self._head_digest
