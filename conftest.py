"""Fixtures shared by ``tests/`` and ``benchmarks/``."""

from collections import deque

import pytest


@pytest.fixture
def finished():
    """``finished(sim, handle)``: drain ``sim``, then the handle's value.

    For what ``PopValidator.run`` and ``IoTNode.verify_block`` return.
    """

    def finished(sim, handle):
        sim.run()
        assert handle.triggered and handle.ok
        return handle.value

    return finished


@pytest.fixture(scope="session")
def references():
    """``references(child, digest)``: whether ``child``'s Δ holds ``digest``.

    The child-of test of §III-C, for checking that a path is a chain of
    digest links.  Session-scoped so hypothesis tests may use it.
    """

    def references(child, digest):
        return digest.value in {parent.value for parent in child.digests.values()}

    return references


@pytest.fixture(scope="session")
def descendants():
    """``descendants(dag, block_id)``: every block reachable from
    ``block_id`` over child edges of a ``LogicalDag`` (itself excluded)."""

    def descendants(dag, block_id):
        seen = set()
        frontier = deque(dag._children.get(block_id, []))
        while frontier:
            block = frontier.popleft()
            if block in seen:
                continue
            seen.add(block)
            frontier.extend(dag._children[block])
        return seen

    return descendants


@pytest.fixture(scope="session")
def max_distinct_origins_on_path(descendants):
    """``max_distinct_origins_on_path(dag, block_id, exclude_origins=None,
    stop_at=None)``: the most distinct physical nodes one descendant path
    from ``block_id`` collects.

    PoP's feasibility oracle: consensus on ``block_id`` with tolerance γ
    is possible iff this is ≥ γ + 1 (the verifier counted).
    ``exclude_origins`` are malicious nodes that serve no header, so no
    path passes through them.  The exact maximum is exponential on dense
    DAGs, so ``stop_at`` returns as soon as that many origins are
    reached.  The search is a DFS carrying the origins of the current
    path, pruned by the distinct origins of a block's whole descendant
    cone; an explicit stack, because paths reach thousands of blocks.
    """

    def max_distinct_origins_on_path(dag, block_id, exclude_origins=None, stop_at=None):
        excluded = exclude_origins or set()
        cones = {}

        def cone_origins(block):
            if block not in cones:
                reachable = {block} | descendants(dag, block)
                cones[block] = {b.origin for b in reachable if b.origin not in excluded}
            return cones[block]

        best = 0
        start = frozenset() if block_id.origin in excluded else frozenset({block_id.origin})
        stack = [(block_id, start)]
        while stack:
            block, origins = stack.pop()
            if len(origins) > best:
                best = len(origins)
                if stop_at is not None and best >= stop_at:
                    return best
            if len(origins | cone_origins(block)) <= best:
                continue
            for child in dag._children[block]:
                if child.origin not in excluded:
                    stack.append((child, origins | {child.origin}))
        return best

    return max_distinct_origins_on_path


@pytest.fixture(scope="session")
def consensus_feasible(max_distinct_origins_on_path):
    """``consensus_feasible(dag, block_id, gamma)``: whether some
    descendant path of ``block_id`` collects ≥ γ + 1 distinct nodes."""

    def consensus_feasible(dag, block_id, gamma):
        return max_distinct_origins_on_path(dag, block_id, stop_at=gamma + 1) >= gamma + 1

    return consensus_feasible
