"""Combined-stress integration: adversaries + frame loss + churn at once.

The harshest scenario the substrate can express: silent and corrupt
nodes, lossy PoP links, and devices duty-cycling mid-run.  2LDAG's
verification remains usable throughout — the property a deployable
system needs.
"""

import random

import pytest

from repro.attacks.behaviors import CorruptResponder, SilentResponder
from repro.core.config import ProtocolConfig
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.net.linkmodels import random_loss_rule
from repro.net.topology import sequential_geometric_topology
from repro.sim.rng import RandomStreams


@pytest.fixture(scope="module")
def stressed():
    streams = RandomStreams(61)
    topology = sequential_geometric_topology(node_count=24, streams=streams)
    behaviors = {2: SilentResponder(), 9: SilentResponder(), 14: CorruptResponder()}
    config = ProtocolConfig(body_bits=80_000, gamma=6, reply_timeout=0.05)
    deployment = TwoLayerDagNetwork(
        config=config, topology=topology, seed=61, behaviors=behaviors
    )
    # 5% loss on PoP messages only (digests stay reliable: they are
    # tiny and rebroadcast every slot anyway).
    deployment.network.add_drop_rule(
        random_loss_rule(0.05, random.Random(61), kinds={"req_child", "rpy_child"})
    )
    workload = SlotSimulation(deployment, generation_period=1)
    workload.run(20)
    # Churn: four honest nodes sleep for 6 slots mid-run.
    sleepers = [5, 11, 17, 21]
    for node_id in sleepers:
        deployment.node(node_id).go_offline()
    workload.run(6, start_slot=20)
    for node_id in sleepers:
        deployment.node(node_id).come_online()
        for other in deployment.node_ids:
            deployment.node(other).record_cooperation(node_id)
    workload.run(8, start_slot=26)
    return deployment, workload, behaviors, sleepers


class TestCombinedStress:
    def _verify_targets(self, deployment, targets, validator_id):
        results = []
        for target in targets:
            process = deployment.node(validator_id).verify_block(
                target.origin, target, fetch_body=False
            )
            deployment.sim.run()
            results.append(process.value)
        return results

    def test_early_blocks_verifiable_after_stress(self, stressed):
        deployment, workload, behaviors, sleepers = stressed
        honest = [n for n in deployment.node_ids if n not in behaviors]
        targets = [
            b for b in workload.blocks_by_slot[1] if b.origin in honest
        ][:8]
        outcomes = self._verify_targets(deployment, targets, validator_id=honest[0])
        successes = sum(o.success for o in outcomes)
        assert successes >= len(targets) - 1  # at most one casualty to loss

    def test_sleeper_chain_continuity(self, stressed):
        deployment, workload, behaviors, sleepers = stressed
        for node_id in sleepers:
            blocks = list(deployment.node(node_id).store)
            # 20 pre-sleep + 8 post-rejoin blocks.
            assert len(blocks) == 28
            for previous, block in zip(blocks, blocks[1:]):
                assert block.header.digests[node_id] == previous.digest()

    def test_corrupt_node_headers_never_on_paths(self, stressed):
        deployment, workload, behaviors, sleepers = stressed
        honest = [n for n in deployment.node_ids if n not in behaviors]
        targets = [b for b in workload.blocks_by_slot[2] if b.origin in honest][:5]
        outcomes = self._verify_targets(deployment, targets, validator_id=honest[1])
        for outcome in outcomes:
            if not outcome.success:
                continue
            for header in outcome.path:
                public = deployment.registry.public_key(header.origin)
                assert header.verify_signature(public)

    def test_dag_remains_consistent(self, stressed):
        deployment, workload, behaviors, sleepers = stressed
        assert deployment.dag.is_acyclic()
        assert len(deployment.dag) == workload.total_blocks()
