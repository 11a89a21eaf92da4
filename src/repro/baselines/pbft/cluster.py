"""A wired PBFT deployment over the shared wireless substrate.

Every topology node runs a replica; each simulated slot, every live
node submits one client request carrying a ``C``-bit IoT data block —
the same workload :class:`~repro.core.protocol.SlotSimulation` drives
for 2LDAG, so storage/communication figures are directly comparable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.baselines.pbft.messages import Request
from repro.baselines.pbft.replica import PbftReplica
from repro.net.deployment import Submission, WiredDeployment
from repro.net.topology import Topology


class PbftCluster(WiredDeployment):
    """All replicas plus the slot-driven client workload."""

    def __init__(
        self,
        topology: Optional[Topology] = None,
        payload_bits: int = 4_000_000,
        seed: int = 0,
        crashed: Optional[Set[int]] = None,
        view_change_timeout: float = 5.0,
        per_hop_latency: float = 0.001,
    ) -> None:
        super().__init__(topology, seed, per_hop_latency, lambda kind: "pbft")
        self.payload_bits = payload_bits
        crashed = crashed or set()
        ids = self.topology.node_ids
        self.replicas: Dict[int, PbftReplica] = {
            node_id: PbftReplica(
                node_id,
                ids,
                self.network,
                view_change_timeout=view_change_timeout,
                crashed=node_id in crashed,
            )
            for node_id in ids
        }

    # -- workload ---------------------------------------------------------
    def run_slots(self, slots: int, settle_time: float = 3.0) -> None:
        """Each live replica submits one C-bit request per slot.

        The three phases then drain for the final slot's requests.
        """
        self._run_slots(slots, settle_time)

    def _submissions(self, slot: int) -> Iterator[Submission]:
        for node_id, replica in self.replicas.items():
            if not replica.crashed:
                yield replica.submit, Request(
                    client=node_id,
                    payload_seed=f"blk:{node_id}:{slot}".encode(),
                    payload_bits=self.payload_bits,
                    timestamp=float(slot),
                )

    # -- fault injection ----------------------------------------------------
    def crash(self, node_ids) -> None:
        """Crash the named replicas: they stop sending and processing.

        Crashing the current primary is the PBFT view-change stress
        test — live replicas' timers expire and they elect a new view.
        """
        for node_id in node_ids:
            self.replicas[node_id].crashed = True

    def recover(self, node_ids) -> None:
        """Un-crash the named replicas.

        A recovered replica resumes protocol participation from its
        pre-crash state; there is no state transfer, so its chain only
        grows again once it can execute in sequence order (committed
        heights it missed stay deferred) — the honest cost of rejoining
        that the fault experiments measure.
        """
        for node_id in node_ids:
            self.replicas[node_id].crashed = False

    # -- measurement --------------------------------------------------------
    def live_replicas(self) -> List[PbftReplica]:
        """Replicas that are not crashed."""
        return [r for r in self.replicas.values() if not r.crashed]

    def chains_consistent(self) -> bool:
        """Safety check: all live chains are prefixes of the longest."""
        chains = [r.chain for r in self.live_replicas()]
        longest = max(chains, key=lambda c: c.height)
        for chain in chains:
            for sequence in range(chain.height):
                if chain.block_at(sequence).digest() != longest.block_at(sequence).digest():
                    return False
        return True

    def storage_bits(self) -> List[int]:
        """Per-replica chain storage."""
        return [r.storage_bits() for r in self.replicas.values()]
