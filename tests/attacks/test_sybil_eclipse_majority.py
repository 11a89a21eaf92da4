"""Sybil, eclipse and majority-coalition attack tests (§IV-D-2/3)."""

import pytest

from repro.attacks.eclipse import eclipse_victim
from repro.attacks.majority import make_coalition
from repro.attacks.sybil import sybil_identities
from repro.core.config import ProtocolConfig
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.sim.rng import RandomStreams


class TestSybil:
    def test_forged_identity_not_registered(self, small_deployment):
        identities = sybil_identities(attacker=4, count=3)
        for identity in identities:
            assert not small_deployment.registry.is_registered(identity.claimed_id)

    def test_forged_header_rejected_by_validator_checks(self, small_deployment):
        workload = SlotSimulation(small_deployment, validate=False)
        workload.run(3)
        (identity,) = sybil_identities(attacker=4, count=1)
        template = list(small_deployment.node(4).store)[0].header
        forged = identity.forge_header(template)
        # The forgery self-verifies under the Sybil's own key...
        assert forged.verify_signature(identity.keypair.public)
        # ...but the registry has no such identity, which is exactly
        # what the validator's _header_authentic check requires.
        assert not small_deployment.registry.is_registered(forged.origin)

    def test_duplicate_identities_cannot_inflate_consensus_set(self, small_deployment, finished):
        """R_i is a set of unique nodes: replaying one node's blocks
        adds nothing (the Sybil defence the paper relies on)."""
        workload = SlotSimulation(small_deployment, validate=False)
        workload.run(10)
        target = workload.blocks_by_slot[0][0]
        node = small_deployment.node(8)
        outcome = finished(small_deployment.sim, node.validator().run(target.origin, target))
        assert outcome.success
        origins = [h.origin for h in outcome.path]
        assert len(outcome.consensus_set) == len(set(origins))


class TestEclipse:
    def test_eclipsed_validator_cannot_verify(self, small_config, grid9, finished):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=2)
        workload = SlotSimulation(deployment, validate=False)
        workload.run(10)
        deployment.network.add_drop_rule(eclipse_victim(8))
        target = workload.blocks_by_slot[0][0]
        outcome = finished(
            deployment.sim, deployment.node(8).validator().run(target.origin, target)
        )
        assert not outcome.success
        assert outcome.error == "verifier-timeout"

    def test_digest_gossip_survives_partial_eclipse(self, small_config, grid9):
        """The default eclipse filters PoP kinds only: the victim still
        learns neighbours' digests (it just cannot verify)."""
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=2)
        deployment.network.add_drop_rule(eclipse_victim(8))
        workload = SlotSimulation(deployment, validate=False)
        workload.run(3)
        victim = deployment.node(8)
        assert len(victim.neighbor_digests) == len(grid9.neighbors(8))

    def test_other_validators_unaffected(self, small_config, grid9, finished):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=2)
        workload = SlotSimulation(deployment, validate=False)
        workload.run(10)
        deployment.network.add_drop_rule(eclipse_victim(8))
        target = workload.blocks_by_slot[0][0]
        validator_id = 0 if target.origin != 0 else 1
        outcome = finished(
            deployment.sim, deployment.node(validator_id).validator().run(target.origin, target)
        )
        assert outcome.success


class TestCoalition:
    def test_coalition_size_and_protection(self, grid9):
        streams = RandomStreams(5)
        behaviors = make_coalition(grid9, 3, streams, protect=[0, 8])
        assert len(behaviors) == 3
        assert 0 not in behaviors and 8 not in behaviors

    def test_oversized_coalition_rejected(self, grid9):
        streams = RandomStreams(5)
        with pytest.raises(ValueError):
            make_coalition(grid9, 9, streams, protect=[0])

    def test_consensus_despite_gamma_malicious(self, finished):
        """The majority-attack claim at small scale: γ silent nodes
        cannot stop a validator that tolerates γ."""
        from repro.net.topology import grid_topology

        config = ProtocolConfig(body_bits=8_000, gamma=3, reply_timeout=0.1)
        grid = grid_topology(4, 4)
        streams = RandomStreams(7)
        behaviors = make_coalition(grid, 3, streams, protect=[0, 15])
        deployment = TwoLayerDagNetwork(
            config=config, topology=grid, seed=7, behaviors=behaviors
        )
        workload = SlotSimulation(deployment, validate=False)
        workload.run(16)
        target = next(
            b for b in workload.blocks_by_slot[0] if b.origin == 0
        )
        outcome = finished(
            deployment.sim, deployment.node(15).validator().run(target.origin, target)
        )
        assert outcome.success
