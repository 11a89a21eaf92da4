"""The trusted header cache ``H_i`` (§IV-B).

After a successful verification, the validator keeps every header on
the path.  Later validations extend paths through cached headers for
free (TPS), avoiding repeat REQ_CHILD round trips — "one may need to
obtain D1 and E2 again when it verifies block C1; this wastes both
computation and communication resources".

A node's own headers are trivially trusted, so ``H_i`` holds them too,
but it does not copy them: the cache is a view over the owner's store
``S_i`` (whose Eq. 11 index already answers "oldest own child of this
digest") plus the headers PoP fetched.  Only the fetched part keeps a
reference index (parent digest -> cached child headers), so TPS
lookups are O(1) per step rather than scanning ``H_i``.
"""

from __future__ import annotations

from itertools import chain
from typing import AbstractSet, Dict, Iterator, Optional, Tuple, Union

from repro.core.block import BlockHeader, BlockId
from repro.core.config import ProtocolConfig
from repro.core.storage import BlockStore
from repro.crypto.hashing import Digest


class HeaderCache:
    """``H_i``: the owner's stored headers plus verified fetched ones."""

    def __init__(self, store: BlockStore) -> None:
        self._store = store
        self._owner = store.owner
        # The fetched part: never a header of the owner's.
        self._headers: Dict[BlockId, BlockHeader] = {}
        # A digest's fetched children in insertion order: the child itself
        # while there is one, a tuple from the second on.  No key owns a
        # container before it needs one (docs/performance.md, "PR 24").
        self._children_of_digest: Dict[bytes, Union[BlockHeader, Tuple[BlockHeader, ...]]] = {}
        self._delta_total = 0  # Σ|Δ| over the fetched headers, for size_bits

    def add(self, header: BlockHeader) -> bool:
        """Insert a header; returns ``False`` if it was already in ``H_i``.

        Every header of the owner's counts as present: its own blocks
        are in ``S_i``, and a header claiming the owner's origin that the
        owner did not store is not one to trust.
        """
        block_id = header.block_id
        if header.origin == self._owner or block_id in self._headers:
            return False
        self._headers[block_id] = header
        self._delta_total += len(header.digests)
        index = self._children_of_digest
        for parent_digest in header.digests.values():
            key = parent_digest.value
            known = index.setdefault(key, header)
            if known is not header:
                index[key] = known + (header,) if type(known) is tuple else (known, header)
        return True

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._headers or self._store.get(block_id) is not None

    def __len__(self) -> int:
        return len(self._store) + len(self._headers)

    def __iter__(self) -> Iterator[BlockHeader]:
        """Own headers in index order, then fetched ones in arrival order."""
        return chain((block.header for block in self._store), self._headers.values())

    def get(self, block_id: BlockId) -> Optional[BlockHeader]:
        """The header for ``block_id`` in ``H_i``, if present."""
        header = self._headers.get(block_id)
        if header is None:
            block = self._store.get(block_id)
            return None if block is None else block.header
        return header

    def find_child(
        self,
        digest: Digest,
        skip_ids: Optional[AbstractSet[BlockId]] = None,
        exclude_origins: Optional[AbstractSet[int]] = None,
    ) -> Optional[BlockHeader]:
        """A header in ``H_i`` whose Δ contains ``digest`` (Eq. 9).

        When several headers reference the digest, the oldest (smallest
        time, then id) is returned — mirroring the responder's Eq. (11)
        rule so TPS and live queries agree.  ``skip_ids`` excludes blocks
        the caller must not revisit: the run's rolled-back dead ends.
        ``exclude_origins`` filters by authoring node — TPS passes the
        current consensus set, which keeps path members out and makes
        every free extension enlarge ``R_i`` instead of wandering down
        the validator's own chain.
        """
        # The owner's candidate is its own Eq. (11) child, from S_i's index.
        best = None
        if not (exclude_origins and self._owner in exclude_origins):
            own = self._store.oldest_child_of(digest, skip_ids)
            if own is not None:
                best = own.header
        children = self._children_of_digest.get(digest.value)
        if children is None:
            return best
        if type(children) is not tuple:
            children = (children,)
        # Single pass: filter and track the (time, id) minimum without
        # materialising the eligible list — TPS calls this once per free
        # path step, often with most children filtered out.  The index
        # holds the headers themselves: no ``BlockId`` is hashed here,
        # and ids are compared only when two times tie.
        for child in children:
            if skip_ids and child.block_id in skip_ids:
                continue
            if exclude_origins and child.origin in exclude_origins:
                continue
            if best is None or child.time < best.time or (
                child.time == best.time and child.block_id < best.block_id
            ):
                best = child
        return best

    def size_bits(self, config: ProtocolConfig) -> int:
        """Storage occupied by the cache (bounded by Proposition 2).

        A header is ``f_c + f_H·|Δ|`` bits, so the sum is
        ``count·f_c + f_H·Σ|Δ|`` over the own headers and the fetched
        ones.  Each part's Σ|Δ| is a running total (a refused ``add``
        adds nothing); headers are frozen and never evicted, so it is
        exact under any ``config``.
        """
        delta_total = self._store.delta_total + self._delta_total
        return len(self) * config.constant_header_bits + config.hash_bits * delta_total
