"""The logical layer ``Ḡ(B, L)`` (§III-C).

No 2LDAG node ever materialises this graph — that is the point of the
architecture.  The simulation builds it on demand, as a read-only view
over every node's store (``TwoLayerDagNetwork.dag``), and tests assert
PoP's behaviour against the ground truth computed here.

Edges point parent -> child: ``(b_x, b_y) ∈ L`` iff the header of
``b_y`` contains the digest of ``b_x``'s header.  A *path* ``P_{x,y}``
follows child edges; ``b_y`` is then a *descendant* of ``b_x``, and a
node *points to* ``b_x`` if it stores any descendant of ``b_x``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.core.block import BlockHeader, BlockId


class LogicalDag:
    """Incrementally built global DAG over block headers."""

    def __init__(self, hash_bits: int = 256) -> None:
        self.hash_bits = hash_bits
        self._headers: Dict[BlockId, BlockHeader] = {}
        self._by_digest: Dict[bytes, BlockId] = {}
        self._children: Dict[BlockId, List[BlockId]] = {}
        self._parents: Dict[BlockId, List[BlockId]] = {}
        #: Digests referenced by inserted headers whose parent block is
        #: not yet known: digest -> referencing (child) blocks.
        self._wanted: Dict[bytes, List[BlockId]] = {}

    # -- construction ------------------------------------------------------
    def add_header(self, header: BlockHeader) -> None:
        """Insert a header and link it to already-known parents/children.

        Insertion order is arbitrary: if a parent arrives after a child,
        the edge is created when the parent's digest becomes resolvable
        (via the pending-reference index, so insertion is O(degree)).

        The digest comes from the header's identity cache
        (:meth:`~repro.core.block.BlockHeader.digest`), so inserting a
        header that has already been pushed or validated re-hashes
        nothing.
        """
        block_id = header.block_id
        if block_id in self._headers:
            raise ValueError(f"duplicate block {block_id}")
        digest = header.digest(self.hash_bits)
        self._headers[block_id] = header
        self._by_digest[digest.value] = block_id
        children = self._children.setdefault(block_id, [])
        parents = self._parents.setdefault(block_id, [])
        # Link to parents already present; queue references to absent ones.
        for parent_digest in header.digests.values():
            parent_id = self._by_digest.get(parent_digest.value)
            if parent_id is not None:
                self._children[parent_id].append(block_id)
                parents.append(parent_id)
            else:
                self._wanted.setdefault(parent_digest.value, []).append(block_id)
        # Link to children inserted before us that were waiting for our digest.
        for child_id in self._wanted.pop(digest.value, ()):
            children.append(child_id)
            self._parents[child_id].append(block_id)

    # -- queries -----------------------------------------------------------
    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._headers

    def __len__(self) -> int:
        return len(self._headers)

    def header(self, block_id: BlockId) -> BlockHeader:
        """Header of a known block."""
        return self._headers[block_id]

    def block_ids(self) -> List[BlockId]:
        """All known blocks, sorted."""
        return sorted(self._headers)

    def children(self, block_id: BlockId) -> List[BlockId]:
        """Blocks whose headers reference this block's digest."""
        return sorted(self._children.get(block_id, []))

    def parents(self, block_id: BlockId) -> List[BlockId]:
        """Blocks this block's header references."""
        return sorted(self._parents.get(block_id, []))

    def is_acyclic(self) -> bool:
        """Kahn's algorithm check; always true unless hashes collide."""
        in_degree = {b: len(self._parents[b]) for b in self._headers}
        queue = deque(b for b, d in in_degree.items() if d == 0)
        visited = 0
        while queue:
            block = queue.popleft()
            visited += 1
            for child in self._children[block]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    queue.append(child)
        return visited == len(self._headers)

    # -- descendant / path analysis (PoP ground truth) -------------------------
    def descendants(self, block_id: BlockId) -> Set[BlockId]:
        """All blocks reachable via child edges (excluding the block)."""
        seen: Set[BlockId] = set()
        frontier = deque(self._children.get(block_id, []))
        while frontier:
            block = frontier.popleft()
            if block in seen:
                continue
            seen.add(block)
            frontier.extend(self._children[block])
        return seen

    def max_distinct_origins_on_path(
        self,
        block_id: BlockId,
        exclude_origins: Optional[Set[int]] = None,
        stop_at: Optional[int] = None,
    ) -> int:
        """Max distinct physical nodes collectible along one descendant path.

        This is PoP's feasibility oracle: consensus on ``block_id`` with
        tolerance γ is possible iff this value ≥ γ + 1 (counting the
        verifier itself).  ``exclude_origins`` models malicious nodes
        that refuse to serve headers — paths may not pass through them.

        ``stop_at`` returns as soon as that many origins are proven
        reachable.  The underlying problem is NP-hard in general (it
        embeds longest-path-style search), and on dense simulation DAGs
        the exhaustive maximum is exponential — feasibility queries
        should therefore always pass ``stop_at`` (as
        :meth:`consensus_feasible` does).

        Computed by DFS with memoisation on (block, frozen origin set)
        collapsed to a safe upper-bound-free exact search over small
        simulation DAGs: we track the best distinct-origin count per
        block via iterative deepening on the DAG's topological order.
        Because the graph is acyclic, the maximum over children of
        ("count including child's origin") is exact when origins along
        a path may repeat (repeats add nothing but are allowed).
        """
        excluded = exclude_origins or set()

        # Exact DFS carrying the set of origins seen on the current path,
        # pruned with an upper bound: the distinct origins reachable in a
        # block's whole descendant cone (memoised per block).
        subtree_origins: Dict[BlockId, Set[int]] = {}

        def collect(block: BlockId) -> Set[int]:
            cached = subtree_origins.get(block)
            if cached is None:
                reachable = {block} | self.descendants(block)
                cached = {b.origin for b in reachable if b.origin not in excluded}
                subtree_origins[block] = cached
            return cached

        best = 0
        start_origin_set = (
            frozenset() if block_id.origin in excluded else frozenset({block_id.origin})
        )
        # Explicit stack: recursion depth equals path length, which can
        # reach thousands of blocks in micro-loop-heavy DAGs (Fig. 6).
        stack: List[Tuple[BlockId, frozenset]] = [(block_id, start_origin_set)]
        while stack:
            block, origins = stack.pop()
            if len(origins) > best:
                best = len(origins)
                if stop_at is not None and best >= stop_at:
                    return best
            if len(origins | collect(block)) <= best:
                continue
            for child in self._children[block]:
                if child.origin in excluded:
                    continue
                stack.append((child, origins | {child.origin}))
        return best

    def consensus_feasible(self, block_id: BlockId, gamma: int) -> bool:  # repro: allow[test-only-public-name] test oracle of PoP feasibility
        """Whether some descendant path collects ≥ γ+1 distinct nodes."""
        return (
            self.max_distinct_origins_on_path(block_id, stop_at=gamma + 1)
            >= gamma + 1
        )

    def edge_count(self) -> int:
        """Number of directed edges ``|L|``."""
        return sum(len(c) for c in self._children.values())
