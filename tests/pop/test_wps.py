"""Unit tests for Weighted Path Selection (Algorithm 1, Eq. 7)."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pop.wps import wps_order
from repro.net.topology import explicit_topology


@pytest.fixture
def fig4_topology():
    """Fig. 4's network: A-B; B,C,D mutual neighbours; D-E.

    Ids: A=0, B=1, C=2, D=3, E=4.
    """
    return explicit_topology([(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)])


class TestFig4:
    """Fig. 4's worked example, read off the order WPS asks in."""

    def test_first_extension_ranks_by_weight(self, fig4_topology):
        """With R={B}: w_A=1/2, w_C=1/3, w_D=1/4, so D, then C, then A."""
        assert list(wps_order({1}, [0, 2, 3], fig4_topology)) == [3, 2, 0]

    def test_second_extension_prefers_e_on_the_tie(self, fig4_topology):
        """With R={B, D}: w_B=2/4 and w_E=1/2 tie below w_C=2/3; E goes
        first because B is already in R (Algorithm 1 lines 11-13)."""
        assert list(wps_order({1, 3}, [1, 2, 4], fig4_topology)) == [4, 1, 2]

    def test_a_fully_counted_neighbourhood_ranks_last(self, fig4_topology):
        """w_A=1 once R covers {A, B}; w_C=1/3."""
        assert list(wps_order({0, 1}, [0, 2], fig4_topology)) == [2, 0]


class TestSelection:
    def test_no_candidates_no_picks(self, fig4_topology):
        assert list(wps_order({1}, [], fig4_topology)) == []

    def test_single_candidate_returned(self, fig4_topology):
        assert list(wps_order({1}, [2], fig4_topology)) == [2]

    def test_random_tie_break_stays_within_tied_set(self, fig4_topology):
        rng = random.Random(0)
        # With R = {}, w_C = w_D = 0: a tie.
        for _ in range(20):
            assert next(wps_order(set(), [2, 3], fig4_topology, rng)) in (2, 3)

    def test_ascending_without_rng_on_a_tie(self, fig4_topology):
        assert list(wps_order(set(), [2, 3], fig4_topology)) == [2, 3]


def single_pick(consensus_set, candidates, topology, rng=None):
    """Algorithm 1 as it was before ``wps_order``: one pick, weights rescored."""
    pool = sorted(set(candidates))
    minimum = 2.0
    tied = []
    for candidate in pool:
        closed = topology.adjacency[candidate] | {candidate}
        weight = len(closed & consensus_set) / len(closed)
        if weight < minimum:
            minimum = weight
            tied = [candidate]
        elif weight == minimum:
            tied.append(candidate)
    if len(tied) == 1:
        return tied[0]
    outside = [c for c in tied if c not in consensus_set]
    if outside and len(outside) != len(tied):
        tied = outside
    if rng is None:
        return tied[0]
    return rng.choice(tied)


@st.composite
def extension(draw):
    """A topology, an ``R_i``, a candidate set and how many picks are taken."""
    node_count = draw(st.integers(min_value=2, max_value=12))
    pairs = [(a, b) for a in range(node_count) for b in range(a + 1, node_count)]
    # A spanning path keeps every id in the topology; extra edges vary the degrees.
    edges = [(n, n + 1) for n in range(node_count - 1)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=20))
    nodes = list(range(node_count))
    return {
        "topology": explicit_topology(edges),
        "consensus_set": set(draw(st.lists(st.sampled_from(nodes), max_size=node_count))),
        "candidates": set(draw(st.lists(st.sampled_from(nodes), max_size=node_count))),
        "seed": draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**32))),
        "picks": draw(st.integers(min_value=0, max_value=node_count)),
    }


class TestOrder:
    """``wps_order`` ≡ repeated single picks with removal, ``rng`` included."""

    @given(extension())
    @settings(max_examples=300, deadline=None)
    def test_prefix_equals_picks_with_removal_and_leaves_rng_equal(self, case):
        topology, consensus_set = case["topology"], case["consensus_set"]
        seed, picks = case["seed"], case["picks"]
        rng = None if seed is None else random.Random(seed)
        reference_rng = None if seed is None else random.Random(seed)

        ascending = sorted(case["candidates"])
        got = list(islice(wps_order(consensus_set, ascending, topology, rng), picks))

        remaining, want = set(case["candidates"]), []
        while remaining and len(want) < picks:
            want.append(single_pick(consensus_set, remaining, topology, reference_rng))
            remaining.discard(want[-1])
        assert got == want
        # A walk that stops early must leave the node's shared stream
        # where single picks would have: no tie is broken ahead of time.
        if rng is not None:
            assert rng.getstate() == reference_rng.getstate()

    def test_nothing_is_scored_or_drawn_before_the_first_pick(self, fig4_topology):
        rng = random.Random(5)
        before = rng.getstate()
        order = wps_order(set(), [2, 3], fig4_topology, rng)
        assert rng.getstate() == before
        assert next(order) in (2, 3)
        assert rng.getstate() != before
