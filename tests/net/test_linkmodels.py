"""Tests for pluggable latency and loss models."""

import random

import pytest

from repro.net.linkmodels import (
    bandwidth_latency,
    constant_latency,
    distance_proportional_latency,
    install_latency_model,
    random_loss_rule,
)
from repro.net.topology import explicit_topology
from repro.net.transport import Network
from repro.sim.kernel import Simulator


@pytest.fixture
def network(line_topology):
    return Network(Simulator(), line_topology, per_hop_latency=0.01)


class TestLatencyModels:
    def test_constant_model_matches_default(self, network, line_topology):
        install_latency_model(network, constant_latency(0.01))
        arrivals = []
        network.attach(3).on("ping", lambda m: arrivals.append(network.sim.now))
        network.attach(0).send(3, "ping", None, 10)
        network.sim.run()
        assert arrivals == [pytest.approx(0.03)]

    def test_distance_model_scales_with_length(self, line_topology):
        # Explicit topologies use unit spacing, so 3 hops = 3 m.
        network = Network(Simulator(), line_topology)
        install_latency_model(network, distance_proportional_latency(0.5))
        arrivals = []
        network.attach(3).on("ping", lambda m: arrivals.append(network.sim.now))
        network.attach(0).send(3, "ping", None, 10)
        network.sim.run()
        assert arrivals == [pytest.approx(1.5)]

    def test_bandwidth_model_scales_with_size(self, line_topology):
        network = Network(Simulator(), line_topology)
        install_latency_model(
            network, bandwidth_latency(bits_per_second=1000), size_aware=True
        )
        arrivals = []
        network.attach(1).on("big", lambda m: arrivals.append(network.sim.now))
        network.attach(0).send(1, "big", None, 500)  # 0.5 s on 1 kbit/s
        network.sim.run()
        assert arrivals == [pytest.approx(0.5)]

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_latency(0)

    def test_accounting_unchanged_by_model(self, line_topology):
        network = Network(Simulator(), line_topology)
        install_latency_model(network, distance_proportional_latency(0.1))
        network.attach(3)
        network.attach(0).send(3, "ping", None, 100)
        network.sim.run()
        assert network.ledger.tx_bits(0) == 100
        assert network.ledger.tx_bits(1) == 100


    def test_fan_out_arrives_like_one_send_per_neighbour(self):
        # Star around 0 with links 1, 2 and 3 m long (unit positions).
        star = explicit_topology([(0, 1), (0, 2), (0, 3)])

        def arrivals(fan_out):
            network = Network(Simulator(), star)
            install_latency_model(network, distance_proportional_latency(0.25))
            seen = []
            for node in (1, 2, 3):
                network.attach(node).on("digest", lambda m, n=node: seen.append((network.sim.now, n)))
            source = network.attach(0)
            network.sim.call_at(1.0, fan_out, source)
            network.sim.run()
            return seen

        pushed = arrivals(lambda source: source.broadcast_neighbors("digest", None, 256))
        assert pushed == arrivals(
            lambda source: [source.send(n, "digest", None, 256) for n in (1, 2, 3)]
        )
        assert pushed == [(1.25, 1), (1.5, 2), (1.75, 3)]

    def test_installing_twice_replaces_the_model(self, network):
        install_latency_model(network, constant_latency(0.5))
        install_latency_model(network, constant_latency(0.02))
        arrivals = []
        network.attach(3).on("ping", lambda m: arrivals.append(network.sim.now))
        network.attach(0).send(3, "ping", None, 10)
        network.sim.run()
        assert arrivals == [pytest.approx(0.06)]
        assert network.per_hop_latency == 0.01  # the constant is left alone


class TestLossModels:
    def test_full_loss_drops_everything(self, network):
        network.add_drop_rule(random_loss_rule(1.0, random.Random(0)))
        received = []
        network.attach(3).on("ping", received.append)
        network.attach(0).send(3, "ping", None, 10)
        network.sim.run()
        assert received == []

    def test_zero_loss_drops_nothing(self, network):
        network.add_drop_rule(random_loss_rule(0.0, random.Random(0)))
        received = []
        network.attach(3).on("ping", received.append)
        for _ in range(10):
            network.attach(0).send(3, "ping", None, 10)
        network.sim.run()
        assert len(received) == 10

    def test_loss_restricted_to_kinds(self, network):
        network.add_drop_rule(random_loss_rule(1.0, random.Random(0), kinds={"lossy"}))
        received = []
        network.attach(1).on("safe", received.append)
        network.attach(1).on("lossy", received.append)
        network.attach(0).send(1, "safe", None, 10)
        network.attach(0).send(1, "lossy", None, 10)
        network.sim.run()
        assert [m.kind for m in received] == ["safe"]

    def test_seeded_loss_reproducible(self, line_topology):
        def run(seed):
            network = Network(Simulator(), line_topology)
            network.add_drop_rule(random_loss_rule(0.5, random.Random(seed)))
            received = []
            network.attach(3).on("ping", received.append)
            for _ in range(30):
                network.attach(0).send(3, "ping", None, 10)
            network.sim.run()
            return len(received)

        assert run(7) == run(7)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            random_loss_rule(1.5, random.Random(0))

    def test_pop_survives_moderate_loss(self, small_deployment):
        """Failure injection: PoP still converges under 10% frame loss
        (timeouts + retries at other candidates absorb it)."""
        from repro.core.protocol import SlotSimulation

        workload = SlotSimulation(small_deployment, generation_period=1)
        workload.run(12)
        small_deployment.network.add_drop_rule(
            random_loss_rule(0.1, random.Random(3), kinds={"req_child", "rpy_child"})
        )
        target = workload.blocks_by_slot[0][0]
        validator = 8 if target.origin != 8 else 7
        successes = 0
        for _ in range(3):
            process = small_deployment.node(validator).verify_block(
                target.origin, target, fetch_body=False
            )
            small_deployment.sim.run()
            successes += process.value.success
        assert successes >= 2


class TestPartitionRule:
    def test_cross_group_hops_drop_within_group_pass(self, network):
        from repro.net.linkmodels import partition_drop_rule

        # Line 0-1-2-3 split as {0,1} | {2,3} (implicit remainder group).
        rule = partition_drop_rule([(0, 1)])
        network.add_drop_rule(rule)
        received = []
        network.attach(1).on("ping", lambda m: received.append((0, 1)))
        network.attach(3).on("ping", lambda m: received.append((2, 3)))
        network.attach(0).send(1, "ping", None, 10)   # within group
        network.attach(2).send(3, "ping", None, 10)   # within remainder
        network.attach(0).send(3, "ping", None, 10)   # crosses the cut
        network.sim.run()
        assert sorted(received) == [(0, 1), (2, 3)]

    def test_overlapping_groups_rejected(self):
        from repro.net.linkmodels import partition_drop_rule

        with pytest.raises(ValueError, match="more than one group"):
            partition_drop_rule([(0, 1), (1, 2)])

    def test_heal_restores_delivery(self, network):
        from repro.net.linkmodels import partition_drop_rule

        rule = partition_drop_rule([(0, 1)])
        network.add_drop_rule(rule)
        network.remove_drop_rule(rule)
        received = []
        network.attach(3).on("ping", lambda m: received.append(True))
        network.attach(0).send(3, "ping", None, 10)
        network.sim.run()
        assert received == [True]

    def test_remove_respects_other_rules(self, network):
        from repro.net.linkmodels import partition_drop_rule

        other = random_loss_rule(1.0, random.Random(0))
        rule = partition_drop_rule([(0,)])
        network.add_drop_rule(other)
        network.add_drop_rule(rule)
        network.remove_drop_rule(rule)
        received = []
        network.attach(1).on("ping", lambda m: received.append(True))
        network.attach(0).send(1, "ping", None, 10)
        network.sim.run()
        assert received == []  # the loss rule survived the removal


class TestLinkDegradation:
    def test_latency_delta_applied_and_revoked(self, network):
        from repro.net.linkmodels import LinkDegradation

        base = network.per_hop_latency
        degradation = LinkDegradation(
            network, loss=0.0, extra_latency=0.004, rng=random.Random(0)
        )
        assert network.per_hop_latency == pytest.approx(base + 0.004)
        degradation.revoke()
        assert network.per_hop_latency == pytest.approx(base)
        degradation.revoke()  # idempotent
        assert network.per_hop_latency == pytest.approx(base)

    def test_full_loss_degradation_drops_everything(self, network):
        from repro.net.linkmodels import LinkDegradation

        degradation = LinkDegradation(
            network, loss=1.0, extra_latency=0.0, rng=random.Random(1)
        )
        received = []
        network.attach(1).on("ping", lambda m: received.append(True))
        network.attach(0).send(1, "ping", None, 10)
        network.sim.run()
        assert received == []
        degradation.revoke()
        network.attach(0).send(1, "ping", None, 10)
        network.sim.run()
        assert received == [True]

    def test_negative_extra_latency_rejected(self, network):
        from repro.net.linkmodels import LinkDegradation

        with pytest.raises(ValueError, match="non-negative"):
            LinkDegradation(
                network, loss=0.0, extra_latency=-1.0, rng=random.Random(0)
            )
