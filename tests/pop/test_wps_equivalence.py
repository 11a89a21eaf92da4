"""WPS's bitmask scorer ≡ the definitional Eq. (7) formula.

``wps_order`` scores a candidate by the popcount of its closed
neighbourhood's mask (``Topology.closed_masks``) against ``R_i``'s
mask.  These tests hold the table to ``N(v) ∪ {v}`` on every kind of
topology the repo builds (non-contiguous ids included), the weights to
the set-construction formula with float ``==``, and the picks and the
ranking to the straightforward formula on randomised consensus sets,
including tie-break behaviour under a seeded RNG.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pop.wps import wps_order
from repro.net.topology import (
    explicit_topology,
    grid_topology,
    sequential_geometric_topology,
)
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


def members(mask, topology):
    """The node ids whose rank bits are set in ``mask``."""
    return {node for rank, node in enumerate(topology.node_ids) if mask >> rank & 1}


def table_weight(candidate, consensus_set, topology):
    """Eq. (7) as ``wps_order`` evaluates it: AND, popcount, divide."""
    bit, closed = topology.closed_masks
    mask, size = closed[candidate]
    return (mask & sum(bit[node] for node in consensus_set)).bit_count() / size


TABLE_TOPOLOGIES = [
    pytest.param(grid_topology(4, 4), id="grid-4x4"),
    pytest.param(explicit_topology([(k, (k + 1) % 7) for k in range(7)]), id="ring-7"),
    pytest.param(
        sequential_geometric_topology(node_count=30, streams=RandomStreams(3)),
        id="geometric-30",
    ),
    pytest.param(
        explicit_topology([(10, 205), (205, 3), (3, 10), (3, 77), (77, -4), (1000, -4)]),
        id="explicit-sparse-ids",
    ),
]


class TestClosedNeighborhoodTable:
    @pytest.mark.parametrize("topology", TABLE_TOPOLOGIES)
    def test_table_matches_adjacency(self, topology):
        bit, closed = topology.closed_masks
        ids = topology.node_ids
        assert bit == {node: 1 << rank for rank, node in enumerate(ids)}
        assert set(closed) == set(ids)
        for node in ids:
            mask, size = closed[node]
            expected = set(topology.neighbors(node)) | {node}
            assert members(mask, topology) == expected
            assert size == len(expected) == topology.degree(node) + 1

    def test_table_built_once(self):
        topology = grid_topology(3, 3)
        assert topology.closed_masks is topology.closed_masks

    def test_subgraph_gets_fresh_table(self):
        topology = grid_topology(3, 3)
        _ = topology.closed_masks
        sub = topology.subgraph_without({0})
        bit, closed = sub.closed_masks
        assert 0 not in bit and 0 not in closed
        # Ranks are the subgraph's own: eight nodes, eight bits, and the
        # removed node's bit is in no mask.
        union = 0
        for node in sub.node_ids:
            mask, size = closed[node]
            assert members(mask, sub) == set(sub.neighbors(node)) | {node}
            assert 0 not in members(mask, sub) and size == mask.bit_count()
            union |= mask
        assert union == (1 << 8) - 1


@st.composite
def scored_extension(draw):
    """A topology on arbitrary int ids, an ``R_i`` and the candidates."""
    ids = draw(st.lists(st.integers(-50, 10**6), min_size=2, max_size=14, unique=True))
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    # A spanning path keeps every id in the topology; extra edges vary the degrees.
    edges = list(zip(ids, ids[1:])) + draw(st.lists(st.sampled_from(pairs), max_size=25))
    return (
        explicit_topology(edges),
        set(draw(st.lists(st.sampled_from(ids), max_size=len(ids)))),
        sorted(set(draw(st.lists(st.sampled_from(ids), max_size=len(ids))))),
    )


class TestWeights:
    @given(scored_extension())
    @settings(max_examples=150, deadline=None)
    def test_popcount_weight_is_the_set_weight(self, case):
        topology, consensus, candidates = case
        for candidate in candidates:
            closed = set(topology.neighbors(candidate)) | {candidate}
            want = len(closed & consensus) / len(closed)
            assert table_weight(candidate, consensus, topology) == want
            assert reference_weight(candidate, consensus, topology) == want
        # Without rng the whole order is the definitional ranking: weight,
        # then outside R_i first on a tie (lines 8-13), then smallest id.
        assert list(wps_order(consensus, candidates, topology)) == sorted(
            candidates,
            key=lambda c: (reference_weight(c, consensus, topology), c in consensus, c),
        )
