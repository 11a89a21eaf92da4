"""One wired deployment: the substrate every ledger rides.

The paper's comparison sets 2LDAG against PBFT and the tangle on *one*
topology under *one* slot workload.  :class:`WiredDeployment` is that
shared ground, assembled in one place: the deployment's named random
streams, the physical topology, the event kernel, the tracer, the
traffic ledger and the transport that ties them together.  The three
ledgers (:class:`~repro.core.protocol.TwoLayerDagNetwork`,
:class:`~repro.baselines.pbft.cluster.PbftCluster`,
:class:`~repro.baselines.iota.node.IotaNetwork`) subclass it and add
only their nodes, so what a :class:`~repro.scenario.backends.
LedgerBackend` measures — clock, event count, traffic, storage — is read
from the same attributes on all of them.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro.metrics.collector import TrafficLedger
from repro.net.topology import Topology, sequential_geometric_topology
from repro.net.transport import CategoryFn, Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.tracing import Tracer

#: One slot submission, as ``Simulator.call_at`` takes it: ``(fn, *args)``.
Submission = Tuple[Any, ...]


class WiredDeployment:
    """streams → topology → kernel → tracer → ledger → transport.

    ``topology`` defaults to the paper's 50-node sequential geometric
    placement drawn from the deployment's own streams; ``seed`` masters
    every stream the subclass draws (``node:*``, ``iota:*``,
    ``workload``, ``order:*``).
    """

    def __init__(
        self,
        topology: Optional[Topology],
        seed: int,
        per_hop_latency: float,
        category_fn: CategoryFn,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.streams = RandomStreams(seed)
        self.topology = (
            topology
            if topology is not None
            else sequential_geometric_topology(streams=self.streams)
        )
        self.sim = Simulator()
        self.tracer = tracer if tracer is not None else Tracer()
        self.traffic = TrafficLedger()
        self.network = Network(
            self.sim,
            self.topology,
            ledger=self.traffic,
            per_hop_latency=per_hop_latency,
            category_fn=category_fn,
            tracer=self.tracer,
        )
        #: Last slot :meth:`_run_slots` drove (the baselines' workload).
        self.current_slot = -1

    @property
    def node_ids(self) -> List[int]:
        """All node ids, sorted."""
        return self.topology.node_ids

    # -- measurement --------------------------------------------------------
    def storage_bits(self) -> List[int]:
        """Bits each node persists right now, in :attr:`node_ids` order."""
        raise NotImplementedError

    def mean_storage_bits(self) -> float:
        """Average per-node stored bits — Fig. 7's y-axis."""
        bits = self.storage_bits()
        return sum(bits) / len(bits)

    # -- the baselines' slot workload ---------------------------------------
    def _submissions(self, slot: int) -> Iterable[Submission]:
        """What the live nodes submit in ``slot``, in scheduling order."""
        raise NotImplementedError

    def _run_slots(self, slots: int, settle_time: float) -> None:
        """Drive ``slots`` slots of one submission per live node, then settle.

        Every submission of a slot is scheduled at the slot boundary and
        the kernel runs to the next one; after the last slot the
        pipeline drains for ``settle_time``, so a sample taken at the
        boundary sees settled state.
        """
        sim = self.sim
        for _ in range(slots):
            self.current_slot += 1
            # Settle time from a previous call may have advanced the
            # clock past the nominal boundary; never schedule behind it.
            slot_time = max(float(self.current_slot), sim.now)
            for submission in self._submissions(self.current_slot):
                sim.call_at(slot_time, *submission)
            sim.run(until=slot_time + 1)
        sim.run(until=sim.now + settle_time)
