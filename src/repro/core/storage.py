"""Per-node block storage ``S_i`` with an oldest-child index.

A node stores only blocks it generated itself (§III-A).  The index
``digest -> oldest own block referencing it`` — the one child Eq. (11)
replies with, so no list of all of them is kept — makes Algorithm 4's
child search O(1) per request instead of scanning the whole store.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterator, List, Optional

from repro.core.block import BlockId, DataBlock
from repro.core.config import ProtocolConfig
from repro.crypto.hashing import Digest


class BlockStore:
    """Append-only store of one node's own blocks."""

    def __init__(self, owner: int, hash_bits: int = 256) -> None:
        self.owner = owner
        self.hash_bits = hash_bits
        self._blocks: List[DataBlock] = []
        # digest -> position of the Eq. (11) reply block, maintained
        # incrementally so the responder's hot path is one dict lookup
        # instead of a min() over all referencing blocks.
        self._oldest_child_of_digest: Dict[bytes, int] = {}
        self._delta_total = 0  # Σ|Δ| over the stored blocks, for size_bits

    def add(self, block: DataBlock) -> None:
        """Append a newly generated block and index its references."""
        if block.header.origin != self.owner:
            raise ValueError(
                f"store of node {self.owner} got block from node {block.header.origin}"
            )
        expected_index = len(self._blocks)
        if block.header.index != expected_index:
            raise ValueError(
                f"non-contiguous block index {block.header.index}, expected {expected_index}"
            )
        position = len(self._blocks)
        self._blocks.append(block)
        self._delta_total += len(block.header.digests)
        time = block.header.time
        for parent_digest in block.header.digests.values():
            key = parent_digest.value
            oldest = self._oldest_child_of_digest.get(key)
            if oldest is None or (time, position) < (
                self._blocks[oldest].header.time, oldest
            ):
                self._oldest_child_of_digest[key] = position

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[DataBlock]:
        return iter(self._blocks)

    @property
    def latest(self) -> Optional[DataBlock]:
        """The most recent own block (``None`` before the genesis block)."""
        return self._blocks[-1] if self._blocks else None

    def get(self, block_id: BlockId) -> Optional[DataBlock]:
        """Block by full id, if it is ours and exists."""
        if block_id.origin != self.owner or not 0 <= block_id.index < len(self._blocks):
            return None
        return self._blocks[block_id.index]

    @property
    def delta_total(self) -> int:
        """Σ|Δ| over the stored blocks (``H_i`` charges it for own headers)."""
        return self._delta_total

    def oldest_child_of(
        self, digest: Digest, skip_ids: Optional[AbstractSet[BlockId]] = None
    ) -> Optional[DataBlock]:
        """Eq. (10)-(11): oldest own block whose Δ contains ``digest``.

        Served from the incrementally maintained oldest-child index —
        ties on generation time break towards the earlier sequence
        position, matching the previous ``min`` over all children.
        Blocks in ``skip_ids`` do not count: when the indexed child is
        one of them (``H_i``'s lookup past a rolled-back dead end, which
        is rare), the next child is found by a scan in the same order.
        """
        position = self._oldest_child_of_digest.get(digest.value)
        if position is None:
            return None
        block = self._blocks[position]
        if not skip_ids or block.block_id not in skip_ids:
            return block
        key = digest.value
        children = [
            (other.header.time, at) for at, other in enumerate(self._blocks)
            if other.block_id not in skip_ids
            and any(parent.value == key for parent in other.header.digests.values())
        ]
        return self._blocks[min(children)[1]] if children else None

    def size_bits(self, config: ProtocolConfig) -> int:
        """Total stored bits of ``S_i`` (Eq. 2 summed over blocks).

        Eq. (2) is ``f_c + f_H·|Δ| + C`` per block, so the sum is
        ``count·(f_c + C) + f_H·Σ|Δ|``.  Only Σ|Δ| depends on the blocks,
        and it is kept as a running total by ``add``; blocks are frozen
        and never removed, so it is exact under any ``config``.
        """
        per_block = config.constant_header_bits + config.body_bits
        return len(self._blocks) * per_block + config.hash_bits * self._delta_total
