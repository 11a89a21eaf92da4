"""Pluggable link latency and loss models.

The base transport uses a constant per-hop latency; real wireless links
vary with distance and congestion, and drop frames.  These models
compose with :class:`~repro.net.transport.Network`:

* latency models are callables ``(topology, hop_from, hop_to) -> seconds``
  installed via :func:`install_latency_model`;
* loss models are seeded random drop rules built by
  :func:`random_loss_rule`, installed with ``Network.add_drop_rule``.

PoP is timeout-driven, so loss and latency directly shape Fig. 9-style
consensus times; the failure-injection tests use these models.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from repro.net.messages import Message
from repro.net.topology import Topology
from repro.net.transport import DropRule, Network

#: Latency model signature.
LatencyModel = Callable[[Topology, int, int], float]


def constant_latency(seconds: float) -> LatencyModel:  # repro: allow[test-only-public-name] test fixture for link_latency
    """The default behaviour as an explicit model."""
    def model(topology: Topology, hop_from: int, hop_to: int) -> float:
        return seconds

    return model


def distance_proportional_latency(seconds_per_meter: float) -> LatencyModel:  # repro: allow[test-only-public-name] test fixture for link_latency
    """Latency grows with link length (propagation + power control).

    A hop takes at least a microsecond, so co-located nodes still see
    positive latency.
    """
    def model(topology: Topology, hop_from: int, hop_to: int) -> float:
        return max(1e-6, topology.distance(hop_from, hop_to) * seconds_per_meter)

    return model


def bandwidth_latency(  # repro: allow[test-only-public-name] test fixture for link_latency
    bits_per_second: float, base: float = 0.0
) -> Callable[[Topology, int, int, int], float]:
    """Serialization-delay model: latency depends on message size.

    Returned callable takes ``(topology, hop_from, hop_to, size_bits)``;
    install with :func:`install_latency_model` (size-aware variant).
    """
    if bits_per_second <= 0:
        raise ValueError("bandwidth must be positive")

    def model(topology: Topology, hop_from: int, hop_to: int, size_bits: int) -> float:
        return base + size_bits / bits_per_second

    return model


def install_latency_model(network: Network, model, size_aware: bool = False) -> None:  # repro: allow[test-only-public-name] test fixture for link_latency
    """Replace the network's constant per-hop latency with ``model``.

    Sets :attr:`Network.link_latency`, the transport's one delay hook:
    the network keeps routing and accounting, and every message —
    unicast or fanned out — is delayed by the model summed over its
    route.  Installing again replaces the previous model.  While one
    is installed the constant is not read, so a :class:`LinkDegradation`
    adds loss but no delay.
    """
    topology = network.topology
    if size_aware:
        network.link_latency = lambda a, b, bits: model(topology, a, b, bits)
    else:
        network.link_latency = lambda a, b, bits: model(topology, a, b)


def partition_drop_rule(groups: Sequence[Sequence[int]]) -> DropRule:
    """A drop rule realizing a network partition.

    ``groups`` are disjoint node sets; any hop between nodes of
    different groups is dropped.  Nodes named in no group form one
    implicit remainder group, so a single group partitions "these nodes
    vs everyone else".  This is what the fault engine installs for
    ``partition`` events and removes again on ``heal``.
    """
    group_of: dict = {}
    for index, group in enumerate(groups):
        for node in group:
            if node in group_of:
                raise ValueError(f"node {node} appears in more than one group")
            group_of[node] = index

    def rule(message: Message, hop_from: int, hop_to: int) -> bool:
        return group_of.get(hop_from, -1) != group_of.get(hop_to, -1)

    return rule


class LinkDegradation:
    """Seeded loss plus extra per-hop latency installed on a network.

    One object owns one degradation: construction installs a
    :func:`random_loss_rule` (when ``loss > 0``) and raises the
    network's per-hop latency by ``extra_latency``; :meth:`revoke`
    undoes exactly what was installed, leaving any other drop rules
    (eclipse adversaries, partitions) untouched.  The fault engine
    keeps at most one live instance per run — a later ``link-degrade``
    event revokes the old one and installs a replacement.
    """

    def __init__(
        self,
        network: Network,
        loss: float,
        extra_latency: float,
        rng: random.Random,
    ) -> None:
        if extra_latency < 0:
            raise ValueError(f"extra_latency must be non-negative, got {extra_latency}")
        self.network = network
        self.loss = loss
        self.extra_latency = extra_latency
        self._rule: Optional[DropRule] = None
        if loss > 0:
            self._rule = random_loss_rule(loss, rng=rng)
            network.add_drop_rule(self._rule)
        network.per_hop_latency += extra_latency
        self._revoked = False

    def revoke(self) -> None:
        """Restore the latency delta and uninstall the loss rule."""
        if self._revoked:
            return
        self._revoked = True
        if self._rule is not None:
            self.network.remove_drop_rule(self._rule)
            self._rule = None
        self.network.per_hop_latency -= self.extra_latency


def random_loss_rule(
    loss_probability: float,
    rng: random.Random,
    kinds: Optional[set] = None,
) -> DropRule:
    """A seeded Bernoulli per-hop loss rule.

    Parameters
    ----------
    loss_probability:
        Chance each hop transmission is lost.
    rng:
        The stream each loss is drawn from (a scenario passes its
        ``faults`` named stream).
    kinds:
        Restrict loss to these message kinds (``None`` = all).
    """
    if not 0.0 <= loss_probability <= 1.0:
        raise ValueError(f"loss probability must be in [0, 1], got {loss_probability}")

    def rule(message: Message, hop_from: int, hop_to: int) -> bool:
        if kinds is not None and message.kind not in kinds:
            return False
        return rng.random() < loss_probability

    return rule
