"""Link faults: partitions, seeded loss and extra per-hop latency.

The transport delays every hop by one constant,
``Network.per_hop_latency``, and loses a message when a drop rule
installed with ``Network.add_drop_rule`` fires.  The fault engine's
``partition`` events install :func:`partition_drop_rule`, and its
``link-degrade`` events a :class:`LinkDegradation`: a
:func:`random_loss_rule` plus a raise of the constant.

PoP is timeout-driven, so loss and latency directly shape Fig. 9-style
consensus times.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.net.messages import Message
from repro.net.transport import DropRule, Network


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


def random_loss_rule(loss_probability: float, rng: random.Random) -> DropRule:
    """A seeded Bernoulli per-hop loss rule.

    Each hop transmission is lost with ``loss_probability``, drawn from
    ``rng`` (a scenario passes its ``faults`` named stream).
    """
    if not 0.0 <= loss_probability <= 1.0:
        raise ValueError(f"loss probability must be in [0, 1], got {loss_probability}")

    def rule(message: Message, hop_from: int, hop_to: int) -> bool:
        return rng.random() < loss_probability

    return rule
