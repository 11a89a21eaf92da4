"""Unit tests for shortest-path routing."""

import pytest

from repro.net.routing import UNREACHABLE, RoutingTable
from repro.net.topology import (
    explicit_topology,
    grid_topology,
    sequential_geometric_topology,
)
from repro.sim.rng import RandomStreams


class TestHopCounts:
    def test_self_distance_zero(self, line_topology):
        table = RoutingTable(line_topology)
        assert table.hop_count(0, 0) == 0

    def test_line_distances(self, line_topology):
        table = RoutingTable(line_topology)
        assert table.hop_count(0, 3) == 3
        assert table.hop_count(1, 3) == 2

    def test_symmetric(self, grid9):
        table = RoutingTable(grid9)
        for a in grid9.node_ids:
            for b in grid9.node_ids:
                assert table.hop_count(a, b) == table.hop_count(b, a)

    def test_unreachable(self):
        disconnected = explicit_topology([(0, 1), (2, 3)])
        table = RoutingTable(disconnected)
        assert table.hop_count(0, 3) == UNREACHABLE


class TestPaths:
    def test_path_endpoints(self, grid9):
        table = RoutingTable(grid9)
        path = table.path(0, 8)
        assert path[0] == 0
        assert path[-1] == 8
        assert len(path) == table.hop_count(0, 8) + 1

    def test_path_follows_edges(self, grid9):
        table = RoutingTable(grid9)
        path = table.path(0, 8)
        for a, b in zip(path, path[1:]):
            assert b in grid9.neighbors(a)

    def test_path_to_self(self, grid9):
        table = RoutingTable(grid9)
        assert table.path(4, 4) == [4]

    def test_unreachable_path_raises(self):
        disconnected = explicit_topology([(0, 1), (2, 3)])
        table = RoutingTable(disconnected)
        with pytest.raises(ValueError):
            table.path(0, 2)

    def test_deterministic_tie_break(self, grid9):
        """Equal-length routes pick the smallest-id next hop."""
        table = RoutingTable(grid9)
        # 0 -> 4 has routes via 1 or 3; next hop must be 1.
        assert table.next_hop(0, 4) == 1

    @pytest.mark.parametrize("topology", [
        pytest.param(grid_topology(4, 5, comm_range=90.0), id="dense-grid"),
        pytest.param(
            sequential_geometric_topology(node_count=30, streams=RandomStreams(3)),
            id="geometric-30",
        ),
    ])
    def test_stored_route_is_the_hop_by_hop_walk(self, topology):
        """Every relay forwards by its *own* next-hop choice.

        The stored routes must equal that walk, not the source's BFS
        tree path: the two are equally short but charge different relays.
        """
        table = RoutingTable(topology)
        for source in topology.node_ids:
            for destination in topology.node_ids:
                walk = [source]
                while walk[-1] != destination:
                    walk.append(table.next_hop(walk[-1], destination))
                assert table.path(source, destination) == walk

    def test_path_hands_out_a_private_list(self, grid9):
        table = RoutingTable(grid9)
        table.path(0, 8).append(99)
        assert table.path(0, 8)[-1] == 8
