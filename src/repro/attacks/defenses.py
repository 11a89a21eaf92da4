"""Defence mechanisms the paper sketches (§IV-D).

* :class:`DigestRateLimiter` — the DoS defence: "a node may ban a
  neighbour that generates blocks quicker than the expected time to
  solve the puzzle" (§IV-D-5).
* :class:`RateLimitedBehavior` — plugs the limiter into an honest
  node's digest admission hook.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Set

from repro.core.node import IoTNode, NodeBehavior
from repro.net.messages import Message


class DigestRateLimiter:
    """Bans neighbours that push digests faster than the puzzle allows.

    Parameters
    ----------
    min_interval:
        Expected minimum time between honest blocks (the puzzle's
        solve time); sustained arrivals faster than this are abusive.
    burst:
        Tolerated burst length before banning (honest jitter allowance).
    """

    def __init__(self, min_interval: float = 0.5, burst: int = 3) -> None:
        self.min_interval = min_interval
        self.burst = burst
        self._arrivals: Dict[int, Deque[float]] = defaultdict(deque)
        self.banned: Set[int] = set()

    def admit(self, sender: int, now: float) -> bool:
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


class RateLimitedBehavior(NodeBehavior):  # repro: allow[test-only-public-name] test fixture: the §IV-D-5 defence
    """Honest behaviour + digest admission control."""

    def __init__(self, limiter: DigestRateLimiter = None) -> None:
        self.limiter = limiter if limiter is not None else DigestRateLimiter()

    def should_process_digest(self, node: IoTNode, message: Message) -> bool:
        return self.limiter.admit(message.sender, node.network.sim.now)
