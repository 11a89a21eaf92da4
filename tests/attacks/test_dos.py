"""DoS-flooding attack and the rate-limiter defence (§IV-D-5).

The defence the paper sketches: "a node may ban a neighbour that
generates blocks quicker than the expected time to solve the puzzle".
Both sides are fixtures of this module: the flood is a burst of junk
digest pushes, and the limiter sits in front of a node's digest handler.
"""

from collections import defaultdict, deque

from repro.core.config import ProtocolConfig
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.crypto.hashing import hash_bytes


def flood(node, count):
    """Push ``count`` junk digests from ``node`` to all its neighbours."""
    for i in range(count):
        junk = hash_bytes(f"junk:{node.node_id}:{i}".encode(), node.config.hash_bits)
        node.interface.broadcast_neighbors(
            "digest", (node.node_id, junk), node.config.digest_message_bits
        )


class DigestRateLimiter:
    """Bans neighbours that push digests faster than the puzzle allows.

    ``min_interval`` is the expected minimum time between honest blocks
    (the puzzle's solve time); ``burst`` arrivals faster than that are
    tolerated as honest jitter before the sender is banned.
    """

    def __init__(self, min_interval=0.5, burst=3):
        self.min_interval = min_interval
        self.burst = burst
        self._arrivals = defaultdict(deque)
        self.banned = set()

    def admit(self, sender, now):
        """Record an arrival; ``False`` means drop (and ban) the sender."""
        if sender in self.banned:
            return False
        window = self._arrivals[sender]
        window.append(now)
        # Keep only the last `burst + 1` arrivals.
        while len(window) > self.burst + 1:
            window.popleft()
        if len(window) == self.burst + 1:
            span = window[-1] - window[0]
            if span < self.min_interval * self.burst:
                self.banned.add(sender)
                return False
        return True


def rate_limit(node, limiter):
    """Put ``limiter`` in front of ``node``'s digest handler."""
    honest = node._on_digest

    def on_digest(message):
        if limiter.admit(message.sender, node.network.sim.now):
            honest(message)

    node.interface.on("digest", on_digest)


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
        deployment = TwoLayerDagNetwork(config=config, topology=grid9, seed=1)
        flood(deployment.node(4), count=50)
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
        limiter = DigestRateLimiter(min_interval=0.5, burst=3)
        deployment = TwoLayerDagNetwork(config=config, topology=grid9, seed=1)
        rate_limit(deployment.node(1), limiter)
        flood(deployment.node(4), count=20)
        deployment.sim.run()
        assert 4 in limiter.banned

    def test_ban_freezes_the_flooders_digest_slot(self, grid9):
        # The limiter sits in front of the handler, so A_1 keeps the last
        # digest admitted before the ban; an unguarded neighbour takes all.
        config = ProtocolConfig(body_bits=8_000, gamma=2)
        limiter = DigestRateLimiter(min_interval=0.5, burst=3)
        deployment = TwoLayerDagNetwork(config=config, topology=grid9, seed=1)
        rate_limit(deployment.node(1), limiter)
        flood(deployment.node(4), count=20)
        deployment.sim.run()
        junk = [hash_bytes(f"junk:4:{i}".encode(), config.hash_bits) for i in range(20)]
        assert deployment.node(1).neighbor_digests[4] == junk[limiter.burst - 1]
        assert deployment.node(3).neighbor_digests[4] == junk[-1]

    def test_honest_rate_passes_limiter(self, grid9):
        config = ProtocolConfig(body_bits=8_000, gamma=2)
        limiter = DigestRateLimiter(min_interval=0.5, burst=3)
        deployment = TwoLayerDagNetwork(config=config, topology=grid9, seed=1)
        rate_limit(deployment.node(1), limiter)
        workload = SlotSimulation(deployment, generation_period=1)
        workload.run(6)
        assert limiter.banned == set()
        # Node 1 still tracks its neighbours' digests normally.
        assert len(deployment.node(1).neighbor_digests) == len(grid9.neighbors(1))
