"""DoS-flooding attack and the rate-limiter defence (§IV-D-5)."""


from repro.attacks.behaviors import DosFlooder
from repro.attacks.defenses import DigestRateLimiter, RateLimitedBehavior
from repro.core.config import ProtocolConfig
from repro.core.protocol import TwoLayerDagNetwork


class TestRateLimiter:
    def test_slow_sender_admitted(self):
        limiter = DigestRateLimiter(min_interval=1.0, burst=3)
        for t in range(10):
            assert limiter.admit(7, float(t * 2))
        assert 7 not in limiter.banned

    def test_flooder_banned(self):
        limiter = DigestRateLimiter(min_interval=1.0, burst=3)
        results = [limiter.admit(7, t * 0.01) for t in range(10)]
        assert not all(results)
        assert 7 in limiter.banned

    def test_banned_sender_stays_dropped(self):
        limiter = DigestRateLimiter(min_interval=1.0, burst=2)
        for t in range(6):
            limiter.admit(7, t * 0.01)
        assert not limiter.admit(7, 100.0)

    def test_independent_senders(self):
        limiter = DigestRateLimiter(min_interval=1.0, burst=2)
        for t in range(6):
            limiter.admit(7, t * 0.01)
        assert limiter.admit(8, 0.05)


class TestFloodScenario:
    def test_flood_only_reaches_neighbors(self, grid9):
        """§IV-D-5: digests are not flooded network-wide, so a DoS
        attacker only burdens its one-hop neighbourhood."""
        config = ProtocolConfig(body_bits=8_000, gamma=2)
        flooder = DosFlooder()
        deployment = TwoLayerDagNetwork(
            config=config, topology=grid9, seed=1, behaviors={4: flooder}
        )
        flooder.flood(deployment.node(4), count=50)
        deployment.sim.run()
        ledger = deployment.traffic
        neighbors = set(grid9.neighbors(4))
        for node in grid9.node_ids:
            if node == 4:
                continue
            if node in neighbors:
                assert ledger.rx_bits(node) > 0
            else:
                assert ledger.rx_bits(node) == 0

    def test_rate_limited_victim_bans_flooder(self, grid9):
        config = ProtocolConfig(body_bits=8_000, gamma=2)
        flooder = DosFlooder()
        limiter = DigestRateLimiter(min_interval=0.5, burst=3)
        deployment = TwoLayerDagNetwork(
            config=config,
            topology=grid9,
            seed=1,
            behaviors={4: flooder, 1: RateLimitedBehavior(limiter)},
        )
        flooder.flood(deployment.node(4), count=20)
        deployment.sim.run()
        assert 4 in limiter.banned

    def test_honest_rate_passes_limiter(self, grid9):
        from repro.core.protocol import SlotSimulation

        config = ProtocolConfig(body_bits=8_000, gamma=2)
        limiter = DigestRateLimiter(min_interval=0.5, burst=3)
        deployment = TwoLayerDagNetwork(
            config=config, topology=grid9, seed=1,
            behaviors={1: RateLimitedBehavior(limiter)},
        )
        workload = SlotSimulation(deployment, generation_period=1)
        workload.run(6)
        assert limiter.banned == set()
        # Node 1 still tracks its neighbours' digests normally.
        assert len(deployment.node(1).neighbor_digests) == len(grid9.neighbors(1))
