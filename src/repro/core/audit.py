"""Partial-body audits via Merkle audit paths.

A digital twin rarely needs a whole ``C``-bit block to answer one
query — e.g. "what was sensor 13's reading at minute 7?" touches one
chunk.  Because headers commit to the body with a Merkle root (Fig. 2),
a storing node can serve a *single chunk plus its audit path*, and the
consumer verifies it against the header it already trusts from a PoP
run.  Bandwidth: one chunk + log2(chunks) hashes instead of ``C`` bits.

This module implements both ends:

* :func:`make_chunk_proof` — the storing node's side;
* :func:`verify_chunk_proof` — the consumer's side;
* :class:`ChunkProof` — the wire object, with size accounting so
  experiments can price partial audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.block import BlockHeader, BlockId, DataBlock
from repro.crypto.hashing import Digest
from repro.crypto.merkle import MerkleTree, verify_audit_path


class AuditError(ValueError):
    """Raised when a chunk proof cannot be produced or fails checks."""


@dataclass(frozen=True)
class ChunkProof:
    """One body chunk plus the hashes proving it is under the Root.

    Attributes
    ----------
    block_id:
        Which block the chunk belongs to.
    chunk_index:
        Position of the chunk within the body.
    chunk:
        The raw chunk bytes.
    path:
        ``(sibling_is_right, digest)`` pairs from leaf to root.
    """

    block_id: BlockId
    chunk_index: int
    chunk: bytes
    path: Tuple[Tuple[bool, Digest], ...]

    def size_bits(self, hash_bits: int = 256) -> int:
        """Wire size: the chunk, the path hashes and indices."""
        return len(self.chunk) * 8 + len(self.path) * hash_bits + 64


def make_chunk_proof(block: DataBlock, chunk_index: int) -> ChunkProof:
    """Produce the proof for one chunk of ``block``'s body.

    Raises :class:`AuditError` for an out-of-range index.
    """
    chunks = block.body.chunks()
    if not 0 <= chunk_index < len(chunks):
        raise AuditError(
            f"chunk index {chunk_index} out of range [0, {len(chunks)})"
        )
    tree = MerkleTree(chunks, block.header.root.bits)
    if tree.root != block.header.root:
        raise AuditError("stored body does not match the header root")
    return ChunkProof(
        block_id=block.block_id,
        chunk_index=chunk_index,
        chunk=chunks[chunk_index],
        path=tuple(tree.audit_path(chunk_index)),
    )


def verify_chunk_proof(proof: ChunkProof, header: BlockHeader) -> bool:
    """Check a chunk proof against a (PoP-trusted) header.

    Returns ``False`` for any mismatch: wrong block, tampered chunk,
    truncated or reordered path.
    """
    if proof.block_id != header.block_id:
        return False
    return verify_audit_path(
        proof.chunk, list(proof.path), header.root, header.root.bits
    )

