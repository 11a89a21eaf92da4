"""Larger-scale integration: closer to the paper's 50-node setup.

These run the full §VI pipeline at 40 nodes (the oracle and validator
are fast enough after the feasibility early-exit and TPS improvements
that this costs only seconds).
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.net.topology import sequential_geometric_topology
from repro.sim.rng import RandomStreams


@pytest.fixture(scope="module")
def large_system():
    streams = RandomStreams(41)
    topology = sequential_geometric_topology(node_count=40, streams=streams)
    config = ProtocolConfig(
        body_bits=ProtocolConfig.paper_defaults().body_bits,
        gamma=13,  # ~33% of 40
        reply_timeout=0.05,
    )
    deployment = TwoLayerDagNetwork(config=config, topology=topology, seed=41)
    workload = SlotSimulation(deployment, validate=True, validation_min_age_slots=40)
    workload.run(70)
    workload.run_until_quiet()
    return deployment, workload


class TestLargeScale:
    def test_validation_volume_and_success(self, large_system):
        deployment, workload = large_system
        # Slots 40-69: 30 slots x 40 nodes of generation-time validation.
        assert len(workload.validations) > 900
        assert workload.success_rate() > 0.95

    def test_quorum_met_on_successes(self, large_system):
        deployment, workload = large_system
        for record in workload.validations:
            if record.outcome.success:
                assert len(record.outcome.consensus_set) >= 14

    def test_storage_two_orders_below_full_replication(self, large_system):
        deployment, workload = large_system
        config = deployment.config
        total_blocks = workload.total_blocks()
        full_replica = total_blocks * config.block_bits(10)
        for node_id in deployment.node_ids:
            ratio = full_replica / deployment.node(node_id).storage_bits()
            assert ratio > 25  # approaches |V| = 40

    def test_mean_message_cost_reasonable(self, large_system):
        """With warm caches, validations settle near the Prop. 4 floor."""
        deployment, workload = large_system
        tail = [r.outcome for r in workload.validations[-200:]]
        mean_messages = sum(o.message_total for o in tail) / len(tail)
        # Prop. 4 floor is 2(γ+1) = 28 cold; warm caches go far below.
        assert mean_messages < 60

    def test_dag_consistency_at_scale(self, large_system):
        deployment, workload = large_system
        assert len(deployment.dag) == workload.total_blocks()
        assert deployment.dag.is_acyclic()

    def test_oracle_feasibility_fast_at_scale(self, large_system, consensus_feasible):
        """The feasibility oracle (early-exit) answers quickly even on a
        ~2800-block DAG — a regression guard for the exponential-search
        fix."""
        deployment, workload = large_system
        targets = workload.blocks_by_slot[0][:5]
        for target in targets:
            assert consensus_feasible(deployment.dag, target, deployment.config.gamma)
