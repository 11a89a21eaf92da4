"""Scenario tests reconstructing the paper's worked examples.

* Fig. 3 — the four-node DAG-construction walk-through (§III-D);
* Fig. 6 — the micro-loop that arises when one node generates much
  faster than another (§V, Proposition 5).
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import TwoLayerDagNetwork
from repro.net.topology import explicit_topology

A, B, C, D = 0, 1, 2, 3


@pytest.fixture
def fig3_deployment(fig3_topology):
    config = ProtocolConfig(body_bits=800, gamma=2)
    return TwoLayerDagNetwork(config=config, topology=fig3_topology, seed=0)


class TestFig3:
    """Fig. 3: D generates first, then C (embedding D's digest), then A,
    then B (embedding A's, C's and D's digests)."""

    def test_dag_construction_walkthrough(self, fig3_deployment):
        deployment = fig3_deployment
        sim = deployment.sim

        block_d1 = deployment.node(D).generate_block()
        sim.run()
        block_c1 = deployment.node(C).generate_block()
        sim.run()
        block_a1 = deployment.node(A).generate_block()
        sim.run()
        block_b1 = deployment.node(B).generate_block()
        sim.run()

        # C1 contains the digest H(D1).
        assert block_c1.header.digests[D] == block_d1.digest()
        # B1 contains H(A1), H(C1) and H(D1).
        assert block_b1.header.digests[A] == block_a1.digest()
        assert block_b1.header.digests[C] == block_c1.digest()
        assert block_b1.header.digests[D] == block_d1.digest()

        # The digests form a DAG with the paper's edges.
        dag = deployment.dag
        assert dag.children(block_d1.block_id) == sorted(
            [block_c1.block_id, block_b1.block_id]
        )
        assert dag.is_acyclic()

    def test_nodes_store_only_their_own_blocks(self, fig3_deployment):
        deployment = fig3_deployment
        for node_id in (D, C, A, B):
            deployment.node(node_id).generate_block()
            deployment.sim.run()
        for node_id in (A, B, C, D):
            store = deployment.node(node_id).store
            assert len(store) == 1
            assert all(b.header.origin == node_id for b in store)

    def test_node_b_transmits_one_digest_per_neighbor(self, fig3_deployment):
        deployment = fig3_deployment
        for node_id in (D, C, A, B):
            deployment.node(node_id).generate_block()
            deployment.sim.run()
        # B has three neighbours; its only traffic is 3 digest pushes.
        expected = deployment.config.hash_bits * 3
        assert deployment.traffic.tx_bits(B) == expected


class TestFig6MicroLoop:
    """Fig. 6: B generates every slot, C rarely; verifying B's early
    block walks a micro-loop through {B, A} before reaching C."""

    @pytest.fixture
    def fig6_deployment(self):
        # Chain A - B - C (A=0, B=1, C=2 in the paper's roles).
        topology = explicit_topology([(0, 1), (1, 2)])
        config = ProtocolConfig(body_bits=800, gamma=2, reply_timeout=0.2)
        return TwoLayerDagNetwork(config=config, topology=topology, seed=0)

    def test_micro_loop_path_repeats_origins(self, fig6_deployment, finished):
        deployment = fig6_deployment
        sim = deployment.sim
        node_a, node_b, node_c = (deployment.node(i) for i in (0, 1, 2))

        # Slot 0: everyone generates a genesis block.
        for node in (node_a, node_b, node_c):
            node.generate_block()
        sim.run()
        # Slots 1..4: only A and B generate (C is slow).
        for _ in range(4):
            node_a.generate_block()
            node_b.generate_block()
            sim.run()
        # C finally generates: its Δ holds B's *latest* digest only.
        node_c.generate_block()
        sim.run()

        # Verify B's genesis block from A; quorum needs A, B and C, so
        # the path must run the A/B micro-loop until it reaches C's block.
        target = list(node_b.store)[0].block_id
        outcome = finished(sim, node_a.validator().run(1, target))
        assert outcome.success
        origins = [h.origin for h in outcome.path]
        assert set(origins) == {0, 1, 2}
        # Micro-loop signature: origins repeat before C appears.
        first_c = origins.index(2)
        assert len(origins[:first_c]) > len(set(origins[:first_c]))

    def test_proposition5_bounds_loop_length(self, fig6_deployment, finished):
        from repro.analysis.bounds import prop5_micro_loop_block_bound

        deployment = fig6_deployment
        sim = deployment.sim
        node_a, node_b, node_c = (deployment.node(i) for i in (0, 1, 2))
        for node in (node_a, node_b, node_c):
            node.generate_block()
        sim.run()
        for _ in range(4):
            node_a.generate_block()
            node_b.generate_block()
            sim.run()
        node_c.generate_block()
        sim.run()

        target = list(node_b.store)[0].block_id
        outcome = finished(sim, node_a.validator().run(1, target))
        assert outcome.success

        # Rates: A and B at 1 block/slot, C at 1/5. M = {A, B}.
        bound = prop5_micro_loop_block_bound([1.0, 1.0], outside_min_rate=1 / 5)
        origins = [h.origin for h in outcome.path]
        first_c = origins.index(2)
        micro_loop_blocks = first_c - 1  # exclude the target itself
        assert micro_loop_blocks <= bound
