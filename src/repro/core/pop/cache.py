"""The trusted header cache ``H_i`` (§IV-B).

After a successful verification, the validator keeps every header on
the path.  Later validations extend paths through cached headers for
free (TPS), avoiding repeat REQ_CHILD round trips — "one may need to
obtain D1 and E2 again when it verifies block C1; this wastes both
computation and communication resources".

The cache maintains a reference index (parent digest -> cached child
headers) so TPS lookups are O(1) per step rather than scanning ``H_i``.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterator, Optional, Tuple, Union

from repro.core.block import BlockHeader, BlockId
from repro.core.config import ProtocolConfig
from repro.crypto.hashing import Digest


class HeaderCache:
    """``H_i``: verified headers with a child-lookup index."""

    def __init__(self, hash_bits: int = 256) -> None:
        self.hash_bits = hash_bits
        self._headers: Dict[BlockId, BlockHeader] = {}
        # A digest's cached children in insertion order: the child itself
        # while there is one, a tuple from the second on.  No key owns a
        # container before it needs one: a third of them never do (two
        # thirds with validation off), and a run's caches hold ten to
        # thirty keys per block built (docs/performance.md, "PR 24").
        self._children_of_digest: Dict[bytes, Union[BlockHeader, Tuple[BlockHeader, ...]]] = {}
        self._delta_total = 0  # Σ|Δ| over the cached headers, for size_bits

    def add(self, header: BlockHeader) -> bool:
        """Insert a header; returns ``False`` if it was already cached."""
        block_id = header.block_id
        if block_id in self._headers:
            return False
        self._headers[block_id] = header
        self._delta_total += len(header.digests)
        index = self._children_of_digest
        for parent_digest in header.digests.values():
            key = parent_digest.value
            known = index.get(key)
            if known is None:
                index[key] = header
            else:
                index[key] = known + (header,) if type(known) is tuple else (known, header)
        return True

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._headers

    def __len__(self) -> int:
        return len(self._headers)

    def __iter__(self) -> Iterator[BlockHeader]:
        return iter(self._headers.values())

    def get(self, block_id: BlockId) -> Optional[BlockHeader]:
        """Cached header for ``block_id``, if present."""
        return self._headers.get(block_id)

    def find_child(
        self,
        digest: Digest,
        skip_ids: Optional[AbstractSet[BlockId]] = None,
        exclude_origins: Optional[AbstractSet[int]] = None,
    ) -> Optional[BlockHeader]:
        """A cached header whose Δ contains ``digest`` (Eq. 9).

        When several cached headers reference the digest, the oldest
        (smallest time, then id) is returned — mirroring the
        responder's Eq. (11) rule so TPS and live queries agree.
        ``skip_ids`` excludes blocks the caller must not revisit (path
        members and rolled-back dead ends); ``exclude_origins`` filters
        by authoring node — TPS passes the current consensus set so
        free extensions always enlarge ``R_i`` instead of wandering
        down the validator's own chain.
        """
        children = self._children_of_digest.get(digest.value)
        if children is None:
            return None
        if type(children) is not tuple:
            children = (children,)
        # Single pass: filter and track the (time, id) minimum without
        # materialising the eligible list — TPS calls this once per free
        # path step, often with most children filtered out.  The index
        # holds the headers themselves: no ``BlockId`` is hashed here.
        best = None
        for child in children:
            if skip_ids and child.block_id in skip_ids:
                continue
            if exclude_origins and child.origin in exclude_origins:
                continue
            if best is None or (child.time, child.block_id) < (best.time, best.block_id):
                best = child
        return best

    def size_bits(self, config: ProtocolConfig) -> int:
        """Storage occupied by the cache (bounded by Proposition 2).

        A header is ``f_c + f_H·|Δ|`` bits, so the sum is
        ``count·f_c + f_H·Σ|Δ|``.  Σ|Δ| is kept as a running total by
        ``add`` (a duplicate adds nothing); headers are frozen and never
        evicted, so it is exact under any ``config``.
        """
        return len(self._headers) * config.constant_header_bits + config.hash_bits * self._delta_total
