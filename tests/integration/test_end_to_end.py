"""End-to-end integration tests across the whole stack."""

import pytest

from repro.attacks.behaviors import SilentResponder
from repro.core.config import ProtocolConfig
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.net.topology import sequential_geometric_topology
from repro.sim.rng import RandomStreams


class TestPaperTopologyEndToEnd:
    """A scaled-down §VI run: geometric topology, generation +
    validation, storage/communication accounting all at once."""

    @pytest.fixture(scope="class")
    def system(self):
        streams = RandomStreams(17)
        topology = sequential_geometric_topology(node_count=20, streams=streams)
        config = ProtocolConfig.paper_defaults(gamma=6)
        config = ProtocolConfig(
            body_bits=config.body_bits, gamma=6, reply_timeout=0.05
        )
        deployment = TwoLayerDagNetwork(config=config, topology=topology, seed=17)
        workload = SlotSimulation(deployment, validate=True, validation_min_age_slots=20)
        workload.run(36)
        workload.run_until_quiet()
        return deployment, workload

    def test_validations_happened_and_succeeded(self, system):
        deployment, workload = system
        assert len(workload.validations) > 40
        assert workload.success_rate() > 0.9

    def test_consensus_sets_meet_quorum(self, system):
        deployment, workload = system
        quorum = deployment.config.consensus_quorum()
        for record in workload.validations:
            if record.outcome.success:
                assert len(record.outcome.consensus_set) >= quorum

    def test_paths_anchor_at_target(self, system):
        deployment, workload = system
        for record in workload.validations:
            if record.outcome.success:
                assert record.outcome.path[0].block_id == record.block_id

    def test_paths_are_genuine_dag_paths(self, system, references):
        deployment, workload = system
        hash_bits = deployment.config.hash_bits
        for record in workload.validations[:40]:
            if not record.outcome.success:
                continue
            for parent, child in zip(record.outcome.path, record.outcome.path[1:]):
                assert references(child, parent.digest(hash_bits))

    def test_oracle_agrees_paths_existed(self, system, consensus_feasible):
        deployment, workload = system
        for record in workload.validations[:20]:
            if record.outcome.success:
                assert consensus_feasible(
                    deployment.dag, record.block_id, deployment.config.gamma
                )

    def test_storage_stays_near_own_data(self, system):
        deployment, workload = system
        config = deployment.config
        own_data_bits = 36 * config.body_bits
        for node_id in deployment.node_ids:
            total = deployment.node(node_id).storage_bits()
            # Own blocks dominate; caches add modest overhead (< 2x).
            assert total < 2 * own_data_bits

    def test_digest_traffic_tiny_vs_pop_traffic(self, system):
        deployment, workload = system
        nodes = deployment.node_ids
        dag_traffic = deployment.traffic.mean_tx_bits(nodes, ["dag"])
        pop_traffic = deployment.traffic.mean_tx_bits(nodes, ["pop"])
        assert dag_traffic < pop_traffic


class TestMixedAdversaryEndToEnd:
    def test_network_survives_mixed_coalition(self):
        streams = RandomStreams(23)
        topology = sequential_geometric_topology(node_count=16, streams=streams)
        config = ProtocolConfig(
            body_bits=80_000, gamma=4, reply_timeout=0.05
        )
        behaviors = {3: SilentResponder(), 7: SilentResponder()}
        deployment = TwoLayerDagNetwork(
            config=config, topology=topology, seed=23, behaviors=behaviors
        )
        workload = SlotSimulation(deployment, validate=True, validation_min_age_slots=16)
        workload.run(30)
        workload.run_until_quiet()
        outcomes = workload.completed_outcomes()
        assert outcomes
        successes = [o for o in outcomes if o.success]
        assert len(successes) / len(outcomes) > 0.7
        # No malicious node ever serves a header, so paths avoid asking
        # them; successful paths may still *cross* their blocks.
        for outcome in successes:
            assert len(outcome.consensus_set) >= 5
