"""IOTA nodes with gossip flooding over the wireless substrate.

Each node keeps a full :class:`~repro.baselines.iota.tangle.Tangle`
replica.  A node that issues or first receives a transaction forwards
it to all physical neighbours (except the link it arrived on) — the
classic flood that gives every participant the whole graph, at the
communication cost Fig. 8 charges IOTA.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional

from repro.baselines.iota.tangle import Tangle, Transaction
from repro.baselines.iota.tip_selection import select_tips_mcmc, select_tips_uniform
from repro.net.deployment import Submission, WiredDeployment
from repro.net.messages import Message
from repro.net.topology import Topology
from repro.net.transport import Network, NodeInterface

KIND_TX = "iota.tx"


class IotaNode:
    """One tangle participant."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        rng: random.Random,
        tip_strategy: str = "uniform",
        mcmc_alpha: float = 0.01,
    ) -> None:
        if tip_strategy not in ("uniform", "mcmc"):
            raise ValueError(f"unknown tip strategy: {tip_strategy}")
        self.node_id = node_id
        self.network = network
        self.rng = rng
        self.tip_strategy = tip_strategy
        self.mcmc_alpha = mcmc_alpha
        self.tangle = Tangle()
        self._issued = 0
        #: A crashed node neither issues nor processes gossip until it
        #: comes back online (fault injection; radio receipt of frames
        #: addressed to a down node is still accounted by the network).
        self.online = True
        self.interface: NodeInterface = network.attach(node_id)
        self.interface.on(KIND_TX, self._on_transaction)

    # -- issuing --------------------------------------------------------------
    def _select_tips(self) -> List[bytes]:
        if self.tip_strategy == "mcmc":
            return select_tips_mcmc(self.tangle, self.rng, alpha=self.mcmc_alpha)
        return select_tips_uniform(self.tangle, self.rng)

    def issue(self, payload_bits: int) -> Transaction:
        """Create a transaction approving two tips and gossip it."""
        parents = tuple(self._select_tips())
        transaction = Transaction(
            issuer=self.node_id,
            index=self._issued,
            parents=parents,
            payload_seed=f"iota:{self.node_id}:{self._issued}".encode(),
            payload_bits=payload_bits,
            timestamp=self.network.sim.now,
        )
        self._issued += 1
        self.tangle.add(transaction)
        tracer = self.network.tracer
        if tracer.enabled:
            # Lifecycle emission for span collectors; the transaction
            # travels whole so the enabled path stays cheap — the
            # collector derives key/digest/parents only as needed.
            tracer.emit(
                self.network.sim.now, "iota.attach", self.node_id,
                tx=transaction,
            )
        self._forward(transaction, exclude=None)
        return transaction

    # -- gossip ---------------------------------------------------------------
    def _on_transaction(self, message: Message) -> None:
        if not self.online:
            return
        transaction: Transaction = message.payload
        if self.tangle.add(transaction):
            tracer = self.network.tracer
            if tracer.enabled:
                tracer.emit(
                    self.network.sim.now, "iota.received", self.node_id,
                    tx=transaction,
                )
            self._forward(transaction, exclude=message.sender)

    def _forward(self, transaction: Transaction, exclude: Optional[int]) -> None:
        neighbors = self.network.topology.sorted_neighbors[self.node_id]
        self.interface.multicast(
            [neighbor for neighbor in neighbors if neighbor != exclude],
            KIND_TX, transaction, transaction.size_bits,
        )

    # -- accounting --------------------------------------------------------
    def storage_bits(self) -> int:
        """Full-tangle storage."""
        return self.tangle.size_bits()


class IotaNetwork(WiredDeployment):
    """All IOTA nodes plus the slot-driven issuance workload."""

    def __init__(
        self,
        topology: Optional[Topology] = None,
        payload_bits: int = 4_000_000,
        seed: int = 0,
        tip_strategy: str = "uniform",
        mcmc_alpha: float = 0.01,
        per_hop_latency: float = 0.001,
    ) -> None:
        super().__init__(topology, seed, per_hop_latency, lambda kind: "iota")
        self.payload_bits = payload_bits
        self.nodes: Dict[int, IotaNode] = {
            node_id: IotaNode(
                node_id,
                self.network,
                rng=self.streams.get(f"iota:{node_id}"),
                tip_strategy=tip_strategy,
                mcmc_alpha=mcmc_alpha,
            )
            for node_id in self.topology.node_ids
        }

    def run_slots(self, slots: int, settle_time: float = 2.0) -> None:
        """Every online node issues one transaction per slot; gossip settles."""
        self._run_slots(slots, settle_time)

    def _submissions(self, slot: int) -> Iterator[Submission]:
        for node in self.nodes.values():
            if node.online:
                yield node.issue, self.payload_bits

    # -- measurement --------------------------------------------------------
    def tangles_consistent(self) -> bool:
        """Whether every node converged to the same transaction set."""
        digest_sets = {
            frozenset(t.digest().value for t in n.tangle.transactions())
            for n in self.nodes.values()
        }
        return len(digest_sets) == 1

    def storage_bits(self) -> List[int]:
        """Per-node full-tangle storage."""
        return [node.storage_bits() for node in self.nodes.values()]
