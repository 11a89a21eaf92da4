"""WPS's table-based scorer ≡ the definitional Eq. (7) formula.

``wps_order`` reads the topology's precomputed closed-neighbourhood
table; these tests hold its picks and its ranking to the
straightforward set-construction formula on randomised consensus sets
over both test topologies, including tie-break behaviour under a
seeded RNG.
"""

import random

import pytest

from repro.core.pop.wps import wps_order
from repro.net.topology import grid_topology, sequential_geometric_topology
from repro.sim.rng import RandomStreams


def reference_weight(candidate, consensus_set, topology):
    """Eq. (7) exactly as written: build the closed set, intersect."""
    closed = set(topology.neighbors(candidate)) | {candidate}
    return len(consensus_set & closed) / len(closed)


def reference_selection(consensus_set, candidates, topology, rng):
    """The pre-optimisation Algorithm 1 (dict of weights, then filter)."""
    pool = sorted(set(candidates))
    weights = {c: reference_weight(c, consensus_set, topology) for c in pool}
    minimum = min(weights.values())
    tied = [c for c in pool if weights[c] == minimum]
    if len(tied) == 1:
        return tied[0]
    outside = [c for c in tied if c not in consensus_set]
    if outside and len(outside) != len(tied):
        tied = outside
    if rng is None:
        return tied[0]
    return rng.choice(tied)


TOPOLOGIES = [
    pytest.param(grid_topology(5, 5), id="grid-5x5"),
    pytest.param(
        sequential_geometric_topology(node_count=30, streams=RandomStreams(3)),
        id="geometric-30",
    ),
]


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestEquivalence:
    def test_selection_matches_reference(self, topology):
        case_rng = random.Random(23)
        nodes = topology.node_ids
        for trial in range(100):
            node = case_rng.choice(nodes)
            candidates = sorted(topology.neighbors(node))
            if not candidates:
                continue
            consensus = set(case_rng.sample(nodes, case_rng.randint(0, 12)))
            # Identical, independently seeded tie-break streams.
            got = next(wps_order(consensus, candidates, topology, random.Random(trial)))
            want = reference_selection(
                consensus, candidates, topology, random.Random(trial)
            )
            assert got == want

    def test_selection_matches_reference_without_rng(self, topology):
        case_rng = random.Random(31)
        nodes = topology.node_ids
        for _ in range(50):
            node = case_rng.choice(nodes)
            candidates = sorted(topology.neighbors(node))
            if not candidates:
                continue
            consensus = set(case_rng.sample(nodes, case_rng.randint(0, 12)))
            assert next(wps_order(consensus, candidates, topology)) == reference_selection(
                consensus, candidates, topology, None
            )

    def test_order_ranks_by_reference_weight(self, topology):
        case_rng = random.Random(41)
        nodes = topology.node_ids
        consensus = set(case_rng.sample(nodes, 8))
        ranking = list(wps_order(consensus, sorted(nodes), topology))
        assert sorted(ranking) == sorted(nodes)
        weights = [reference_weight(c, consensus, topology) for c in ranking]
        assert weights == sorted(weights)


class TestClosedNeighborhoodTable:
    def test_table_matches_adjacency(self):
        topology = grid_topology(4, 4)
        for node in topology.node_ids:
            assert topology.closed_neighborhoods[node] == (
                set(topology.neighbors(node)) | {node}
            )

    def test_table_built_once(self):
        topology = grid_topology(3, 3)
        assert topology.closed_neighborhoods is topology.closed_neighborhoods

    def test_subgraph_gets_fresh_table(self):
        topology = grid_topology(3, 3)
        _ = topology.closed_neighborhoods
        sub = topology.subgraph_without({0})
        assert 0 not in sub.closed_neighborhoods
        for node in sub.node_ids:
            assert 0 not in sub.closed_neighborhoods[node]
