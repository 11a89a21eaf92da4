"""Unit tests for the IoT node: generation, digests, responder role."""

import pytest

from repro.core.pop.messages import KIND_REQ_CHILD, KIND_RPY_CHILD, ReqChild
from repro.core.protocol import TwoLayerDagNetwork


@pytest.fixture
def deployment(small_config, fig3_topology):
    return TwoLayerDagNetwork(config=small_config, topology=fig3_topology, seed=5)


class TestGeneration:
    def test_genesis_has_no_digests(self, deployment):
        node = deployment.node(0)
        block = node.generate_block()
        assert block.header.index == 0
        assert block.header.digests == {}

    def test_second_block_references_own_previous(self, deployment):
        node = deployment.node(0)
        first = node.generate_block()
        deployment.sim.run()
        second = node.generate_block()
        assert second.header.digests[0] == first.digest()

    def test_blocks_reference_neighbor_digests(self, deployment):
        node_d = deployment.node(3)
        block_d = node_d.generate_block()
        deployment.sim.run()  # digest reaches B and C
        node_c = deployment.node(2)
        block_c = node_c.generate_block()
        assert block_c.header.digests[3] == block_d.digest()

    def test_latest_digest_replaces_older(self, deployment):
        node_d = deployment.node(3)
        node_c = deployment.node(2)
        node_d.generate_block()
        deployment.sim.run()
        second_d = node_d.generate_block()
        deployment.sim.run()
        block_c = node_c.generate_block()
        # C's Δ holds only D's *latest* digest (A_i replacement rule).
        assert block_c.header.digests[3] == second_d.digest()
        assert len([o for o in block_c.header.digests if o == 3]) == 1

    def test_generation_registers_in_oracle(self, deployment):
        block = deployment.node(1).generate_block()
        assert block.block_id in deployment.dag

    def test_own_header_seeds_cache(self, deployment):
        node = deployment.node(1)
        block = node.generate_block()
        assert node.cache.get(block.block_id) is block.header

    def test_digest_broadcast_charged(self, deployment):
        node_b = deployment.node(1)  # three neighbours
        node_b.generate_block()
        deployment.sim.run()
        expected = deployment.config.digest_message_bits * 3
        assert deployment.traffic.tx_bits(1) == expected


class TestDigestHandling:
    def test_neighbors_is_the_topology_frozen_set(self, deployment, fig3_topology):
        node = deployment.node(1)
        assert node.neighbors is fig3_topology.neighbors(1)
        assert node.neighbors == frozenset({0, 2, 3})
        assert not hasattr(node.neighbors, "add")  # nothing a caller can mutate

    def test_digest_push_goes_out_in_ascending_neighbor_order(self, deployment):
        arrived = []
        for node in (0, 2, 3):
            deployment.network.interface(node).on("probe", lambda m, n=node: arrived.append(n))
        sent = deployment.node(1).interface.broadcast_neighbors("probe", (1, None), 256)
        assert sent.recipient == (0, 2, 3)
        deployment.sim.run()
        assert arrived == [0, 2, 3]

    def test_non_neighbor_digest_ignored(self, deployment):
        """A digest claiming to come over a non-existent edge is dropped."""
        node_a = deployment.node(0)  # A's only neighbour is B
        node_c = deployment.node(2)
        block_c = node_c.generate_block()
        # Forge: C unicasts a digest directly to A (not a neighbour).
        node_c.interface.send(
            0, "digest", (2, block_c.digest()), deployment.config.hash_bits
        )
        deployment.sim.run()
        assert 2 not in node_a.neighbor_digests

    def test_spoofed_sender_ignored(self, deployment):
        node_a = deployment.node(0)
        node_c = deployment.node(2)
        block = node_c.generate_block()
        # C claims the digest is from B (sender mismatch).
        node_c.interface.send(0, "digest", (1, block.digest()), 256)
        deployment.sim.run()
        assert 1 not in node_a.neighbor_digests


class TestResponderRole:
    def test_answers_req_child_with_oldest_child(self, deployment):
        node_d = deployment.node(3)
        node_c = deployment.node(2)
        block_d = node_d.generate_block()
        deployment.sim.run()
        node_c.generate_block()  # references D's digest
        deployment.sim.run()

        replies = []
        node_d.interface.on(KIND_RPY_CHILD, replies.append)
        node_d.interface.send(
            2,
            KIND_REQ_CHILD,
            ReqChild(digest=block_d.digest(), verifying_origin=3),
            deployment.config.hash_bits,
        )
        deployment.sim.run()
        assert len(replies) == 1
        header = replies[0].payload.header
        assert header.origin == 2
        assert header.digest_from(3) == block_d.digest()

    def test_nack_when_no_child(self, deployment):
        node_d = deployment.node(3)
        node_c = deployment.node(2)
        block_d = node_d.generate_block()
        deployment.sim.run()
        replies = []
        node_d.interface.on(KIND_RPY_CHILD, replies.append)
        node_d.interface.send(
            2, KIND_REQ_CHILD,
            ReqChild(digest=block_d.digest(), verifying_origin=3), 256,
        )
        deployment.sim.run()
        assert len(replies) == 1
        assert replies[0].payload.header is None


class TestPenaltyMechanism:
    def test_blacklist_after_strikes(self, deployment):
        node = deployment.node(0)
        for _ in range(3):
            node.record_no_reply(7)
        assert 7 in node.blacklist

    def test_below_threshold_not_blacklisted(self, deployment):
        node = deployment.node(0)
        node.record_no_reply(7)
        node.record_no_reply(7)
        assert 7 not in node.blacklist

    def test_cooperation_clears_blacklist(self, deployment):
        node = deployment.node(0)
        for _ in range(3):
            node.record_no_reply(7)
        node.record_cooperation(7)
        assert 7 not in node.blacklist


class TestStorageAccounting:
    def test_storage_is_store_plus_cache(self, deployment):
        node = deployment.node(1)
        node.generate_block()
        deployment.sim.run()
        expected = node.store.size_bits(deployment.config) + node.cache.size_bits(
            deployment.config
        )
        assert node.storage_bits() == expected
