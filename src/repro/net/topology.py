"""IoT network topologies.

The evaluation (§VI) places 50 wireless nodes with 50 m communication
range in a square area, one by one: the first node at the centre, every
subsequent node uniformly at random *within communication range of an
already-placed node*.  This guarantees a connected graph without
rejection sampling over whole layouts.  :func:`sequential_geometric_topology`
implements exactly that procedure; :class:`Topology` is the resulting
immutable graph with geometry attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class Topology:
    """An undirected node graph with planar positions.

    Attributes
    ----------
    positions:
        Node id -> (x, y) metres.
    adjacency:
        Node id -> frozen set of neighbour ids (Eq. 1's ``N(i)``).
    comm_range:
        The radio range used to derive the adjacency.
    """

    positions: Dict[int, Tuple[float, float]]
    adjacency: Dict[int, FrozenSet[int]]
    comm_range: float

    # -- basic queries ---------------------------------------------------
    @property
    def node_ids(self) -> List[int]:
        """Sorted node identifiers (the set ``V``)."""
        return sorted(self.positions)

    @property
    def node_count(self) -> int:
        """``|V|``."""
        return len(self.positions)

    def neighbors(self, node: int) -> FrozenSet[int]:
        """``N(node)`` per Eq. (1)."""
        return self.adjacency[node]

    @cached_property
    def closed_masks(self) -> Tuple[Dict[int, int], Dict[int, Tuple[int, int]]]:
        """``N(node) ∪ {node}`` for every node as a bitmask, built once per topology.

        Returns ``(bit, closed)``: ``bit[v]`` is ``1 << rank(v)``, and
        ``closed[v]`` is ``(mask, size)``, the OR of the bits of
        ``N(v) ∪ {v}`` and ``|N(v)| + 1``.

        WPS scores every candidate by its closed neighbourhood (Eq. 7)
        on every path-extension step of every PoP run.  With one bit per
        node *rank* in :attr:`node_ids` (so any int id works), an
        intersection size is ``(mask & r).bit_count()`` of two ints, with
        no per-candidate allocation.  The topology is immutable, so the
        table can never go stale (``subgraph_without`` returns a fresh
        instance with its own ranks and table).
        """
        bit = {node: 1 << rank for rank, node in enumerate(self.node_ids)}
        closed = {}
        for node, neighbors in self.adjacency.items():
            # Distinct nodes, so the sum of their bits is their OR.
            mask = sum(map(bit.__getitem__, neighbors | {node}))
            closed[node] = (mask, mask.bit_count())
        return bit, closed

    @cached_property
    def sorted_neighbors(self) -> Dict[int, Tuple[int, ...]]:
        """``N(node)`` in ascending id order — the digest-push send order."""
        return {node: tuple(sorted(n)) for node, n in self.adjacency.items()}

    def degree(self, node: int) -> int:
        """``|N(node)|``."""
        return len(self.adjacency[node])

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Each undirected edge once, as ``(low_id, high_id)``."""
        for node in self.node_ids:
            for neighbor in self.adjacency[node]:
                if node < neighbor:
                    yield (node, neighbor)

    def edge_count(self) -> int:
        """``|E|``."""
        return sum(1 for _ in self.edges())

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes in metres."""
        ax, ay = self.positions[a]
        bx, by = self.positions[b]
        return math.hypot(ax - bx, ay - by)

    def is_connected(self) -> bool:
        """Whether the whole graph is one component (BFS check)."""
        ids = self.node_ids
        if not ids:
            return True
        seen: Set[int] = {ids[0]}
        frontier = [ids[0]]
        while frontier:
            node = frontier.pop()
            for neighbor in self.adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(ids)

    def subgraph_without(self, removed: Set[int]) -> "Topology":  # repro: allow[test-only-public-name] test oracle of the routing property test
        """The topology with ``removed`` nodes (and their edges) deleted."""
        positions = {n: p for n, p in self.positions.items() if n not in removed}
        adjacency = {
            n: frozenset(m for m in neigh if m not in removed)
            for n, neigh in self.adjacency.items()
            if n not in removed
        }
        return Topology(positions=positions, adjacency=adjacency, comm_range=self.comm_range)


def _adjacency_from_positions(
    positions: Dict[int, Tuple[float, float]], comm_range: float
) -> Dict[int, FrozenSet[int]]:
    ids = sorted(positions)
    neighbors: Dict[int, Set[int]] = {n: set() for n in ids}
    for i, a in enumerate(ids):
        ax, ay = positions[a]
        for b in ids[i + 1:]:
            bx, by = positions[b]
            if math.hypot(ax - bx, ay - by) <= comm_range:
                neighbors[a].add(b)
                neighbors[b].add(a)
    return {n: frozenset(s) for n, s in neighbors.items()}


def sequential_geometric_topology(
    node_count: int = 50,
    area_side: float = 1000.0,
    comm_range: float = 50.0,
    streams: RandomStreams = None,
) -> Topology:
    """The paper's sequential connected placement (§VI).

    The first node is placed at the centre of the ``area_side`` ×
    ``area_side`` square.  Each subsequent node picks an already-placed
    anchor uniformly at random and lands uniformly within the anchor's
    communication disc (clamped to the area), guaranteeing connectivity.

    Parameters
    ----------
    node_count:
        ``|V|``; the paper uses 50.
    area_side:
        Side of the deployment square in metres.
    comm_range:
        Radio range in metres; the paper uses 50.
    streams:
        Random source (its ``topology`` stream); a fresh seed-0 source
        when omitted.
    """
    if node_count <= 0:
        raise ValueError(f"node_count must be positive, got {node_count}")
    if streams is None:
        streams = RandomStreams(0)
    rng = streams.get("topology")

    center = area_side / 2.0
    positions: Dict[int, Tuple[float, float]] = {0: (center, center)}
    for node in range(1, node_count):
        anchor = rng.choice(sorted(positions))
        ax, ay = positions[anchor]
        # Uniform point in the anchor's disc via polar inverse-CDF.
        radius = comm_range * math.sqrt(rng.random())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x = min(max(ax + radius * math.cos(angle), 0.0), area_side)
        y = min(max(ay + radius * math.sin(angle), 0.0), area_side)
        positions[node] = (x, y)

    adjacency = _adjacency_from_positions(positions, comm_range)
    topology = Topology(positions=positions, adjacency=adjacency, comm_range=comm_range)
    assert topology.is_connected(), "sequential placement must yield a connected graph"
    return topology


def grid_topology(rows: int, cols: int, spacing: float = 40.0, comm_range: float = 50.0) -> Topology:
    """A deterministic grid layout — handy for unit tests and examples.

    With the default spacing/range, each node links to its 4-neighbours
    (diagonals are out of range at 40·√2 ≈ 56.6 m > 50 m).
    """
    positions = {
        r * cols + c: (c * spacing, r * spacing) for r in range(rows) for c in range(cols)
    }
    adjacency = _adjacency_from_positions(positions, comm_range)
    return Topology(positions=positions, adjacency=adjacency, comm_range=comm_range)


def explicit_topology(edges: Sequence[Tuple[int, int]]) -> Topology:  # repro: allow[test-only-public-name] test fixture: hand-drawn graphs
    """Build a topology from an explicit edge list (unit positions, unit range).

    Used throughout the tests to recreate the paper's worked examples
    (Fig. 3's four-node network, Fig. 5's 13-node network, Fig. 6's
    three-node chain).
    """
    nodes: Set[int] = set()
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop on node {a}")
        nodes.add(a)
        nodes.add(b)
    positions = {n: (float(i), 0.0) for i, n in enumerate(sorted(nodes))}
    neighbors: Dict[int, Set[int]] = {n: set() for n in nodes}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    adjacency = {n: frozenset(s) for n, s in neighbors.items()}
    return Topology(positions=positions, adjacency=adjacency, comm_range=1.0)
