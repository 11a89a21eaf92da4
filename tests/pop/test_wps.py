"""Unit tests for Weighted Path Selection (Algorithm 1, Eq. 7)."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pop.wps import (
    closed_neighborhood_weight,
    rank_candidates,
    weighted_path_selection,
    wps_order,
)
from repro.net.topology import explicit_topology


@pytest.fixture
def fig4_topology():
    """Fig. 4's network: A-B; B,C,D mutual neighbours; D-E.

    Ids: A=0, B=1, C=2, D=3, E=4.
    """
    return explicit_topology([(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)])


class TestWeights:
    def test_fig4_worked_example_weights(self, fig4_topology):
        """The paper computes w_A=1/2, w_C=1/3, w_D=1/4 with R={B}."""
        consensus = {1}  # R_i = {B}
        assert closed_neighborhood_weight(0, consensus, fig4_topology) == pytest.approx(1 / 2)
        assert closed_neighborhood_weight(2, consensus, fig4_topology) == pytest.approx(1 / 3)
        assert closed_neighborhood_weight(3, consensus, fig4_topology) == pytest.approx(1 / 4)

    def test_fig4_second_step_weights(self, fig4_topology):
        """After adding D: weights of D's neighbours B, C, E."""
        consensus = {1, 3}  # R_i = {B, D}
        assert closed_neighborhood_weight(1, consensus, fig4_topology) == pytest.approx(2 / 4)
        assert closed_neighborhood_weight(2, consensus, fig4_topology) == pytest.approx(2 / 3)
        assert closed_neighborhood_weight(4, consensus, fig4_topology) == pytest.approx(1 / 2)

    def test_weight_zero_when_disjoint(self, fig4_topology):
        assert closed_neighborhood_weight(0, set(), fig4_topology) == 0.0

    def test_weight_one_when_fully_covered(self, fig4_topology):
        assert closed_neighborhood_weight(0, {0, 1}, fig4_topology) == 1.0


class TestSelection:
    def test_fig4_selects_d_first(self, fig4_topology):
        """From B1 with R={B}, WPS must pick D (minimum weight)."""
        chosen = weighted_path_selection({1}, [0, 2, 3], fig4_topology)
        assert chosen == 3

    def test_fig4_selects_e_second(self, fig4_topology):
        """From D1 with R={B, D}: ties at 1/2 between B and E resolve to
        E because B is already in R (Algorithm 1 lines 11-13)."""
        chosen = weighted_path_selection({1, 3}, [1, 2, 4], fig4_topology)
        assert chosen == 4

    def test_empty_candidates_raise(self, fig4_topology):
        with pytest.raises(ValueError):
            weighted_path_selection({1}, [], fig4_topology)

    def test_single_candidate_returned(self, fig4_topology):
        assert weighted_path_selection({1}, [2], fig4_topology) == 2

    def test_random_tie_break_stays_within_tied_set(self, fig4_topology):
        rng = random.Random(0)
        # With an empty consensus set, all of B's neighbours tie at 0...
        # except their neighbourhood sizes differ, so craft a real tie:
        # candidates C and D with R = {} -> w_C = 0, w_D = 0: tie.
        for _ in range(20):
            chosen = weighted_path_selection(set(), [2, 3], fig4_topology, rng)
            assert chosen in (2, 3)

    def test_deterministic_without_rng(self, fig4_topology):
        a = weighted_path_selection(set(), [2, 3], fig4_topology)
        b = weighted_path_selection(set(), [2, 3], fig4_topology)
        assert a == b

    def test_rank_orders_by_weight(self, fig4_topology):
        ranked = rank_candidates({1}, [0, 2, 3], fig4_topology)
        assert ranked[0] == 3  # lowest weight first
        assert set(ranked) == {0, 2, 3}


def single_pick(consensus_set, candidates, topology, rng=None):
    """Algorithm 1 as it was before ``wps_order``: one pick, weights rescored."""
    pool = sorted(set(candidates))
    closed_table = topology.closed_neighborhoods
    minimum = 2.0
    tied = []
    for candidate in pool:
        closed = closed_table[candidate]
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

        got = list(islice(wps_order(consensus_set, case["candidates"], topology, rng), picks))

        remaining, want = set(case["candidates"]), []
        while remaining and len(want) < picks:
            want.append(single_pick(consensus_set, remaining, topology, reference_rng))
            remaining.discard(want[-1])
        assert got == want
        # A walk that stops early must leave the node's shared stream
        # where single picks would have: no tie is broken ahead of time.
        if rng is not None:
            assert rng.getstate() == reference_rng.getstate()

    @given(extension())
    @settings(max_examples=100, deadline=None)
    def test_single_pick_is_the_first_of_the_order(self, case):
        topology, consensus_set, candidates = (
            case["topology"], case["consensus_set"], case["candidates"]
        )
        if not candidates:
            with pytest.raises(ValueError):
                weighted_path_selection(consensus_set, candidates, topology)
            return
        seed = case["seed"]
        rng = None if seed is None else random.Random(seed)
        reference_rng = None if seed is None else random.Random(seed)
        assert weighted_path_selection(
            consensus_set, candidates, topology, rng
        ) == single_pick(consensus_set, candidates, topology, reference_rng)

    def test_nothing_is_scored_or_drawn_before_the_first_pick(self, fig4_topology):
        rng = random.Random(5)
        before = rng.getstate()
        order = wps_order(set(), [2, 3], fig4_topology, rng)
        assert rng.getstate() == before
        assert next(order) in (2, 3)
        assert rng.getstate() != before
