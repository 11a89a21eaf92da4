"""Shortest-path routing over a topology.

PoP's validator exchanges ``REQ_CHILD``/``RPY_CHILD`` with nodes that
are generally not its physical neighbours, so those unicasts traverse
multi-hop routes.  :class:`RoutingTable` precomputes all-pairs hop
counts and next-hops with per-source BFS (unweighted links), which is
exact for the paper's unit-cost wireless graph.

The paper's §VII names "construct the shortest path from a validator to
a verifier in the physical layer" as future work; this module is also
the substrate for that extension (see the validator's ``hop_aware``
option).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, List, Optional, Tuple

from repro.net.topology import Topology

#: Hop count reported for unreachable destinations.
UNREACHABLE = -1

#: ``(node, times)`` pairs, in the order a hop walk first meets each node.
_Multiplicities = Tuple[Tuple[int, int], ...]
#: Transmitters, receivers and ``(hop count, destinations)`` pairs of a fan-out.
_FanoutPlan = Tuple[_Multiplicities, _Multiplicities, Tuple[Tuple[int, Tuple[int, ...]], ...]]


class RoutingTable:
    """All-pairs BFS routes over a :class:`Topology`.

    Routes are deterministic: among equal-length routes, the next hop
    with the smallest node id is chosen, keeping byte accounting
    reproducible across runs.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._distance: Dict[int, Dict[int, int]] = {}
        self._next_hop: Dict[int, Dict[int, int]] = {}
        for source in topology.node_ids:
            self._compute_from(source)
        # Every route is walked once here, hop by hop through each relay's
        # own next-hop choice, and then only looked up per message.
        self._routes: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        #: ``hops[source][destination]``: the route's ``(hop_from, hop_to)``
        #: pairs — ``()`` for self, no entry if unreachable.  Read-only.
        self.hops: Dict[int, Dict[int, Tuple[Tuple[int, int], ...]]] = {}
        for source, next_hop in self._next_hop.items():
            routes = self._routes[source] = {source: (source,)}
            hops = self.hops[source] = {source: ()}
            for destination in next_hop:
                route = [source]
                while route[-1] != destination:
                    route.append(self._next_hop[route[-1]][destination])
                routes[destination] = tuple(route)
                hops[destination] = tuple(zip(route, route[1:]))
        self._plans: Dict[int, Dict[Tuple[int, ...], _FanoutPlan]] = {n: {} for n in self.hops}

    def _compute_from(self, source: int) -> None:
        distance: Dict[int, int] = {source: 0}
        parent: Dict[int, int] = {}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in sorted(self.topology.neighbors(node)):
                if neighbor not in distance:
                    distance[neighbor] = distance[node] + 1
                    parent[neighbor] = node
                    queue.append(neighbor)
        next_hop: Dict[int, int] = {}
        for destination in distance:
            if destination == source:
                continue
            # Walk back from the destination to the node adjacent to source.
            cursor = destination
            while parent[cursor] != source:
                cursor = parent[cursor]
            next_hop[destination] = cursor
        self._distance[source] = distance
        self._next_hop[source] = next_hop

    def hop_count(self, source: int, destination: int) -> int:
        """Hops on the shortest route, 0 for self, ``UNREACHABLE`` if none."""
        if source == destination:
            return 0
        return self._distance[source].get(destination, UNREACHABLE)

    def next_hop(self, source: int, destination: int) -> Optional[int]:
        """First hop from ``source`` toward ``destination`` (``None`` if unreachable)."""
        if source == destination:
            return None
        return self._next_hop[source].get(destination)

    def path(self, source: int, destination: int) -> List[int]:
        """Full node sequence ``[source, ..., destination]``.

        Raises ``ValueError`` when the destination is unreachable.
        """
        route = self._routes[source].get(destination)
        if route is None:
            raise ValueError(f"no route from {source} to {destination}")
        return list(route)

    def fanout_plan(self, source: int, destinations: Tuple[int, ...]) -> Optional[_FanoutPlan]:
        """What walking ``hops`` to each destination in turn adds up to.

        ``(tx, rx, arrivals)``: how many times each node transmits and
        receives over the whole fan-out, as ``(node, times)`` pairs in
        the order the walk first meets them, and the destinations that
        share each hop count, in the order given.  ``None`` if any
        destination is unreachable.  Memoised per distinct fan-out — a
        run repeats a few (each node to its sorted neighbours, each
        replica to its peers) and routes never change.
        """
        plans = self._plans[source]
        plan = plans.get(destinations)
        if plan is None and self.hops[source].keys() >= set(destinations):
            routes = [self.hops[source][destination] for destination in destinations]
            tx = Counter(hop_from for hops in routes for hop_from, _ in hops)
            rx = Counter(hop_to for hops in routes for _, hop_to in hops)
            arrivals: Dict[int, List[int]] = {}
            for destination, hops in zip(destinations, routes):
                arrivals.setdefault(len(hops), []).append(destination)
            plan = plans[destinations] = (
                tuple(tx.items()), tuple(rx.items()),
                tuple((count, tuple(group)) for count, group in arrivals.items()),
            )
        return plan

    def eccentricity(self, node: int) -> int:
        """Largest hop count from ``node`` to any reachable node."""
        return max(self._distance[node].values())

    def diameter(self) -> int:
        """Largest hop count over all reachable pairs."""
        return max(self.eccentricity(n) for n in self.topology.node_ids)

    def nodes_sorted_by_distance(self, source: int) -> List[int]:
        """All reachable nodes ordered by (hops, id) — used by experiments."""
        reachable = self._distance[source]
        return sorted(reachable, key=lambda n: (reachable[n], n))
