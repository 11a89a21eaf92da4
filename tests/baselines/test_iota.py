"""Unit tests for the IOTA baseline: tangle, tip selection, gossip."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.iota.node import IotaNetwork
from repro.baselines.iota.tangle import Tangle, Transaction
from repro.baselines.iota.tip_selection import select_tips_uniform
from repro.net.topology import grid_topology


def tx(issuer, index, parents=(), payload_bits=100):
    return Transaction(
        issuer=issuer,
        index=index,
        parents=tuple(parents),
        payload_seed=f"{issuer}:{index}".encode(),
        payload_bits=payload_bits,
        timestamp=float(index),
    )


class SortedTipsTangle:
    """The reference: tips as a set, sorted by an insertion-order index per call."""

    def __init__(self):
        self._transactions = {}
        self._approvers = {}
        self._tips = set()
        self._order = []

    def add(self, transaction):
        digest = transaction.digest().value
        if digest in self._transactions:
            return False
        self._transactions[digest] = transaction
        self._order.append(digest)
        self._approvers.setdefault(digest, [])
        for parent in transaction.parents:
            self._approvers.setdefault(parent, []).append(digest)
            self._tips.discard(parent)
        if not self._approvers[digest]:
            self._tips.add(digest)
        return True

    def tips(self):
        order_index = {d: i for i, d in enumerate(self._order)}
        return sorted(self._tips, key=lambda d: order_index[d])


@st.composite
def insertion_orders(draw):
    """Transactions of a random DAG, inserted shuffled and with repeats.

    Parents are drawn from earlier transactions (a repeated parent is
    allowed, as uniform selection with replacement produces), so a
    shuffle makes approvers arrive before their parents.
    """
    count = draw(st.integers(min_value=1, max_value=30))
    transactions = []
    for index in range(count):
        earlier = [t.digest().value for t in transactions]
        parents = draw(st.lists(st.sampled_from(earlier), max_size=2)) if earlier else []
        transactions.append(tx(index % 4, index, parents))
    order = draw(st.permutations(transactions))
    repeats = draw(st.lists(st.sampled_from(transactions), max_size=8))
    for transaction in repeats:
        order.insert(draw(st.integers(min_value=0, max_value=len(order))), transaction)
    return order


class TestTipsEqualReference:
    @settings(max_examples=200, deadline=None)
    @given(order=insertion_orders(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_tips_and_uniform_draws_equal_sorted_reference(self, order, seed):
        tangle, reference = Tangle(), SortedTipsTangle()
        for transaction in order:
            assert tangle.add(transaction) == reference.add(transaction)
            assert tangle.tips() == reference.tips()
            assert select_tips_uniform(tangle, random.Random(seed)) == select_tips_uniform(
                reference, random.Random(seed)
            )
        assert [t.digest().value for t in tangle.transactions()] == reference._order


class TestTangle:
    def test_add_and_lookup(self):
        tangle = Tangle()
        genesis = tx(0, 0)
        assert tangle.add(genesis)
        assert genesis.digest().value in tangle
        assert len(tangle) == 1

    def test_duplicate_rejected(self):
        tangle = Tangle()
        genesis = tx(0, 0)
        tangle.add(genesis)
        assert not tangle.add(genesis)

    def test_tips_track_unapproved(self):
        tangle = Tangle()
        genesis = tx(0, 0)
        tangle.add(genesis)
        assert tangle.tips() == [genesis.digest().value]
        child = tx(1, 0, [genesis.digest().value])
        tangle.add(child)
        assert tangle.tips() == [child.digest().value]

    def test_out_of_order_insertion(self):
        """An approver arriving before its parent still links correctly."""
        tangle = Tangle()
        genesis = tx(0, 0)
        child = tx(1, 0, [genesis.digest().value])
        tangle.add(child)
        tangle.add(genesis)
        # Genesis is approved, so it must not be a tip.
        assert tangle.tips() == [child.digest().value]

    def test_size_bits(self):
        tangle = Tangle()
        tangle.add(tx(0, 0, payload_bits=1000))
        assert tangle.size_bits() == 1000 + 2 * 256 + 32 + 32 + 32 + 256


class TestTipSelection:
    def _tangle_with_tips(self):
        tangle = Tangle()
        genesis = tx(0, 0)
        tangle.add(genesis)
        for issuer in range(1, 5):
            tangle.add(tx(issuer, 0, [genesis.digest().value]))
        return tangle

    def test_uniform_selects_existing_tips(self):
        tangle = self._tangle_with_tips()
        rng = random.Random(0)
        tips = select_tips_uniform(tangle, rng)
        assert len(tips) == 2
        assert set(tips) <= set(tangle.tips())

    def test_uniform_single_tip_duplicates(self):
        tangle = Tangle()
        tangle.add(tx(0, 0))
        tips = select_tips_uniform(tangle, random.Random(0))
        assert len(tips) == 2
        assert tips[0] == tips[1]

    def test_uniform_empty_tangle(self):
        assert select_tips_uniform(Tangle(), random.Random(0)) == []

class TestGossip:
    def test_all_nodes_converge(self):
        network = IotaNetwork(topology=grid_topology(3, 3), payload_bits=800, seed=1)
        network.run_slots(4)
        assert network.tangles_consistent()
        reference = list(network.nodes.values())[0].tangle
        assert len(reference) == 4 * 9

    def test_equal_sizes_with_different_transactions_are_not_consistent(self):
        network = IotaNetwork(topology=grid_topology(2, 2), payload_bits=800, seed=1)
        network.run_slots(3)
        assert network.tangles_consistent()
        node = network.nodes[3]
        swapped = Tangle()
        *kept, dropped = node.tangle.transactions()
        for transaction in kept:
            swapped.add(transaction)
        swapped.add(tx(99, 0, dropped.parents))
        node.tangle = swapped
        assert len(swapped) == len(network.nodes[0].tangle)
        assert not network.tangles_consistent()

    def test_every_node_stores_full_tangle(self):
        network = IotaNetwork(topology=grid_topology(2, 3), payload_bits=800, seed=1)
        network.run_slots(3)
        sizes = [n.storage_bits() for n in network.nodes.values()]
        assert len(set(sizes)) == 1  # identical full replicas

    def test_tangle_parents_resolve_after_settle(self):
        network = IotaNetwork(topology=grid_topology(3, 3), payload_bits=800, seed=2)
        network.run_slots(3)
        for node in network.nodes.values():
            tangle = node.tangle
            assert all(p in tangle for t in tangle.transactions() for p in t.parents)

    def test_forward_skips_the_neighbour_it_came_from(self):
        # Line 0-1-2: 0 issues, 1 forwards to 2 only, 2 has no one left.
        network = IotaNetwork(topology=grid_topology(1, 3), payload_bits=800, seed=1)
        hops = []
        network.network.add_drop_rule(lambda message, a, b: hops.append((a, b)) and False)
        network.nodes[0].issue(800)
        network.sim.run()
        assert hops == [(0, 1), (1, 2)]
        assert network.traffic.message_count("iota.tx") == 2
        # The middle node's own transaction goes both ways, in id order.
        del hops[:]
        network.nodes[1].issue(800)
        network.sim.run()
        assert hops == [(1, 0), (1, 2)]

    def test_offline_node_forwards_nothing(self):
        network = IotaNetwork(topology=grid_topology(1, 3), payload_bits=800, seed=1)
        network.nodes[1].online = False
        network.nodes[0].issue(800)
        network.sim.run()
        assert network.traffic.message_count("iota.tx") == 1
        assert len(network.nodes[2].tangle) == 0
