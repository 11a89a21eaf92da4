"""Discrete-event message transport with byte accounting.

:class:`Network` connects node protocol stacks over a
:class:`~repro.net.topology.Topology`.  Delivery semantics:

* **neighbor broadcast** — one logical transmission per neighbour (the
  paper counts node B's digest cost as "transmission and reception of
  three digests to and from A, C and D", §III-D, i.e. per-link
  accounting);
* **unicast** — multi-hop along shortest routes; every forwarding node
  is charged transmit bits and every receiving node receive bits, so a
  few central relays accumulate the heavy tails seen in Fig. 8(d).

Messages are delivered after ``hops × per_hop_latency`` simulated time.
Per-node drop rules model malicious silence, lossy links and eclipse
partitions (§IV-D).

A fan-out — :meth:`NodeInterface.multicast` — is one transmission: one
shared :class:`Message` addressed to all its recipients, one event per
recipient, one kernel entry per arrival instant.  How it is accounted is
read from the transport's state at each send:

* **planned** — no drop rule, every recipient routable:
  the ledger takes the whole fan-out in one call from the plan
  :meth:`~repro.net.routing.RoutingTable.fanout_plan` memoises, which
  holds exactly what the hop walks would have added up to;
* **walked** — otherwise each recipient goes through ``_transmit``, the
  hop walk a unicast takes, so a drop still charges the prefix it spent.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.collector import TrafficLedger
from repro.net.messages import Message
from repro.net.routing import RoutingTable
from repro.net.topology import Topology
from repro.sim.errors import SchedulingError
from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    from repro.telemetry.spans import SpanCollector

#: A drop rule decides, per message and hop, whether the link eats it.
DropRule = Callable[[Message, int, int], bool]

#: Maps a message kind to the ledger category it is accounted under.
CategoryFn = Callable[[str], str]


def default_category(kind: str) -> str:
    """Account each kind under itself (experiments install finer maps)."""
    return kind


class NodeInterface:
    """One node's attachment point to the :class:`Network`.

    Protocol stacks register handlers by message kind and use
    :meth:`send`, :meth:`multicast`, :meth:`broadcast_neighbors` and
    :meth:`request`.
    """

    def __init__(self, network: "Network", node_id: int) -> None:
        self.network = network
        self.node_id = node_id
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        #: Request id -> its ``on_reply``, until answered or expired.
        self._pending: Dict[int, Callable[[Optional[Message]], None]] = {}

    # -- registration ---------------------------------------------------
    def on(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` for messages of ``kind``."""
        self._handlers[kind] = handler

    # -- sending -----------------------------------------------------------
    def send(self, recipient: int, kind: str, payload: Any, size_bits: int) -> Message:
        """Unicast to ``recipient`` over the shortest route."""
        message = Message(self.node_id, recipient, kind, payload, size_bits)
        self.network.unicast(message)
        return message

    def reply(self, request: Message, kind: str, payload: Any, size_bits: int) -> Message:
        """Answer a request; the reply is matched to a waiting :meth:`request`."""
        message = request.reply(self.node_id, kind, payload, size_bits)
        self.network.unicast(message)
        return message

    def multicast(
        self, recipients: Iterable[int], kind: str, payload: Any, size_bits: int
    ) -> Message:
        """One :meth:`send` per recipient, in order, sharing one envelope."""
        return self.network.multicast(self.node_id, recipients, kind, payload, size_bits)

    def broadcast_neighbors(self, kind: str, payload: Any, size_bits: int) -> Message:
        """Send ``payload`` to every physical neighbour (digest push)."""
        return self.network.multicast(
            self.node_id, self.network.topology.sorted_neighbors[self.node_id], kind, payload, size_bits
        )

    def request(
        self, recipient: int, kind: str, payload: Any, size_bits: int, timeout: float,
        on_reply: Callable[[Optional[Message]], None],
    ) -> None:
        """Unicast; ``on_reply`` gets the reply, or ``None`` on timeout.

        This is the validator's REQ_CHILD/RPY_CHILD pattern
        (Algorithm 3, lines 17-19): ``on_reply`` is called once, as a
        kernel event of its own, with the reply :class:`Message` — or
        with ``None`` once ``timeout`` sim time elapses with no answer,
        so silent malicious responders are survivable.
        """
        if timeout < 0:
            raise SchedulingError(f"negative timeout: {timeout}")
        msg_id = self.send(recipient, kind, payload, size_bits).msg_id
        self._pending[msg_id] = on_reply
        # Only the id rides to the timeout, so an answered request is freed.
        self.network.sim.call_in(timeout, self._expire, msg_id)

    def _expire(self, msg_id: int) -> None:
        on_reply = self._pending.pop(msg_id, None)
        if on_reply is not None:
            self.network.sim.call_in(0.0, on_reply, None)


class Network:
    """The shared medium: topology + routing + latency + accounting."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        ledger: Optional[TrafficLedger] = None,
        per_hop_latency: float = 0.001,
        category_fn: CategoryFn = default_category,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.routing = RoutingTable(topology)
        self.ledger = ledger if ledger is not None else TrafficLedger()
        self.per_hop_latency = per_hop_latency
        self.category_fn = category_fn
        #: The run's block-lifecycle collector, installed by
        #: :meth:`~repro.telemetry.spans.SpanRecorder.run_started`; the
        #: ledger's emission sites call it only when it is set.
        self.spans: Optional[SpanCollector] = None
        self._interfaces: Dict[int, NodeInterface] = {}
        self._drop_rules: List[DropRule] = []

    # -- attachment -----------------------------------------------------------
    def attach(self, node_id: int) -> NodeInterface:
        """Create (or return) the interface for ``node_id``."""
        if node_id not in self.topology.positions:
            raise KeyError(f"node {node_id} is not part of the topology")
        interface = self._interfaces.get(node_id)
        if interface is None:
            interface = NodeInterface(self, node_id)
            self._interfaces[node_id] = interface
        return interface

    def interface(self, node_id: int) -> NodeInterface:
        """The already-attached interface for ``node_id``."""
        return self._interfaces[node_id]

    # -- fault injection ---------------------------------------------------
    def add_drop_rule(self, rule: DropRule) -> None:
        """Install a per-hop drop predicate ``rule(message, from, to)``."""
        self._drop_rules.append(rule)

    def remove_drop_rule(self, rule: DropRule) -> None:
        """Uninstall one previously added drop rule (no-op if absent).

        Fault injection needs targeted removal — healing a partition
        must not also clear an eclipse adversary's rule.
        """
        try:
            self._drop_rules.remove(rule)
        except ValueError:
            pass

    # -- delivery -------------------------------------------------------------
    def _transmit(self, message: Message, recipient: int) -> Optional[float]:
        """Account ``message`` hop by hop to ``recipient``; its delay, ``None`` if lost.

        If the destination is unreachable (e.g. after node removal) or a
        drop rule fires mid-route, traffic up to the failure point is
        still accounted — bytes were spent even though delivery failed,
        matching how a real radio medium behaves.
        """
        kind = message.kind
        category = self.category_fn(kind)
        self.ledger.record_message(kind)
        # Loopback has no hops: it costs nothing on the medium and no time.
        hops = self.routing.hops[message.sender].get(recipient)
        if hops is None:
            return None
        record_tx, record_rx = self.ledger.record_tx, self.ledger.record_rx
        rules, bits = self._drop_rules, message.size_bits
        for hop_from, hop_to in hops:
            record_tx(hop_from, category, bits)
            for rule in rules:
                if rule(message, hop_from, hop_to):
                    return None
            record_rx(hop_to, category, bits)
        # Read per send: link faults change the constant mid-run.
        return self.per_hop_latency * len(hops)

    def unicast(self, message: Message) -> None:
        """Route ``message`` over its shortest path and schedule its delivery."""
        recipient = message.recipient
        if isinstance(recipient, tuple):
            raise TypeError("an envelope addressed to a tuple is multicast()'s to send")
        delay = self._transmit(message, recipient)
        if delay is not None:
            self.sim.call_in(delay, self._deliver_to, message, recipient)

    def multicast(
        self, sender: int, recipients: Iterable[int], kind: str, payload: Any, size_bits: int
    ) -> Message:
        """Send one envelope to ``recipients`` in order; one event per arrival.

        Accounting and losses are those of so many unicasts (see the
        module docstring for how).  Recipients that arrive together keep
        their send order inside one
        :meth:`~repro.sim.kernel.Simulator.call_in_each`.
        """
        members = tuple(recipients)
        message = Message(sender, members, kind, payload, size_bits)
        sim, deliver = self.sim, partial(self._deliver_to, message)
        now = sim.now
        plannable = members and not self._drop_rules
        plan = self.routing.fanout_plan(sender, members) if plannable else None
        delays: Sequence[Optional[float]]
        if plan is None:
            delays = [self._transmit(message, recipient) for recipient in members]
        else:
            tx, rx, arrivals = plan
            self.ledger.record_fanout(kind, self.category_fn(kind), size_bits, len(members), tx, rx)
            latency = self.per_hop_latency
            # One batch per hop count, unless the latency is 0 or rounds away.
            if len({now + latency * hops for hops, _ in arrivals}) == len(arrivals):
                for hops, group in arrivals:
                    sim.call_in_each(latency * hops, deliver, group)
                return message
            delays = [latency * self.hop_count(sender, recipient) for recipient in members]
        # Keyed by arrival time: two delays can round to one instant.
        batches: Dict[float, Tuple[float, List[int]]] = {}
        for recipient, delay in zip(members, delays):
            if delay is not None:
                batches.setdefault(now + delay, (delay, []))[1].append(recipient)
        for delay, batch in batches.values():
            sim.call_in_each(delay, deliver, batch)
        return message

    def _deliver_to(self, message: Message, recipient: int) -> None:
        """Hand an arrived message to a request's callback or the kind handler."""
        # The interface is resolved now, not at send time.
        interface = self._interfaces.get(recipient)
        if interface is None:
            return
        if message.in_reply_to is not None:
            on_reply = interface._pending.pop(message.in_reply_to, None)
            if on_reply is not None:
                self.sim.call_in(0.0, on_reply, message)
                return
        handler = interface._handlers.get(message.kind)
        if handler is not None:
            handler(message)

    def hop_count(self, source: int, destination: int) -> int:
        """Hops between two nodes (routing shortcut for experiments)."""
        return self.routing.hop_count(source, destination)
