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

Messages are delivered after ``hops × per_hop_latency`` simulated time
(or the installed per-link model summed over the route).  Per-node drop
rules model malicious silence, DoS filtering and eclipse partitions
(§IV-D).  A fan-out — :meth:`NodeInterface.multicast` — is accounted
message by message like so many unicasts, and its deliveries share one
kernel entry per arrival time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.metrics.collector import TrafficLedger
from repro.net.messages import Message
from repro.net.routing import RoutingTable
from repro.net.topology import Topology
from repro.sim.errors import SchedulingError
from repro.sim.kernel import Simulator
from repro.sim.tracing import Tracer

#: A drop rule decides, per message and hop, whether the link eats it.
DropRule = Callable[[Message, int, int], bool]

#: Seconds one hop takes: ``(hop_from, hop_to, size_bits) -> delay``.
LinkLatency = Callable[[int, int, int], float]

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
        self._default_handler: Optional[Callable[[Message], None]] = None

    # -- registration ---------------------------------------------------
    def on(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` for messages of ``kind``."""
        self._handlers[kind] = handler

    def on_any(self, handler: Callable[[Message], None]) -> None:
        """Register a fallback handler for unmatched kinds."""
        self._default_handler = handler

    # -- sending -----------------------------------------------------------
    def send(self, recipient: int, kind: str, payload: Any, size_bits: int) -> Message:
        """Unicast to ``recipient`` over the shortest route."""
        message = Message(self.node_id, recipient, kind, payload, size_bits)
        self.network.unicast(message)
        return message

    def reply(self, request: Message, kind: str, payload: Any, size_bits: int) -> Message:
        """Answer a request; the reply is matched to a waiting :meth:`request`."""
        message = request.reply(kind, payload, size_bits)
        self.network.unicast(message)
        return message

    def multicast(
        self, recipients: Iterable[int], kind: str, payload: Any, size_bits: int
    ) -> List[Message]:
        """One :meth:`send` per recipient, in order, as a single fan-out."""
        sender = self.node_id
        messages = [Message(sender, recipient, kind, payload, size_bits) for recipient in recipients]
        self.network.multicast(messages)
        return messages

    def broadcast_neighbors(self, kind: str, payload: Any, size_bits: int) -> List[Message]:
        """Send ``payload`` to every physical neighbour (digest push)."""
        return self.multicast(
            self.network.topology.sorted_neighbors[self.node_id], kind, payload, size_bits
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
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.routing = RoutingTable(topology)
        self.ledger = ledger if ledger is not None else TrafficLedger()
        self.per_hop_latency = per_hop_latency
        #: Per-link delay replacing the constant one; see
        #: :func:`repro.net.linkmodels.install_latency_model`.
        self.link_latency: Optional[LinkLatency] = None
        self.category_fn = category_fn
        self.tracer = tracer if tracer is not None else Tracer()
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

    def clear_drop_rules(self) -> None:
        """Remove all drop rules."""
        self._drop_rules.clear()

    # -- delivery -------------------------------------------------------------
    def _transmit(self, message: Message) -> Optional[float]:
        """Account ``message`` hop by hop; its delivery delay, ``None`` if lost.

        If the destination is unreachable (e.g. after node removal) or a
        drop rule fires mid-route, traffic up to the failure point is
        still accounted — bytes were spent even though delivery failed,
        matching how a real radio medium behaves.
        """
        kind = message.kind
        category = self.category_fn(kind)
        self.ledger.record_message(kind)
        # Loopback has no hops: it costs nothing on the medium and no time.
        hops = self.routing.hops[message.sender].get(message.recipient)
        if hops is None:
            self.tracer.emit(self.sim.now, "net.unroutable", message.sender,
                             recipient=message.recipient, kind=kind)
            return None
        record_tx, record_rx = self.ledger.record_tx, self.ledger.record_rx
        rules, bits = self._drop_rules, message.size_bits
        for hop_from, hop_to in hops:
            record_tx(hop_from, category, bits)
            for rule in rules:
                if rule(message, hop_from, hop_to):
                    self.tracer.emit(self.sim.now, "net.dropped", hop_from,
                                     hop_to=hop_to, kind=kind)
                    return None
            record_rx(hop_to, category, bits)
        # The one place a delay is computed, read per send: link faults
        # change the constant mid-run.
        link_latency = self.link_latency
        if link_latency is None:
            return self.per_hop_latency * len(hops)
        return sum([link_latency(hop_from, hop_to, bits) for hop_from, hop_to in hops])

    def unicast(self, message: Message) -> None:
        """Route ``message`` over its shortest path and schedule its delivery."""
        delay = self._transmit(message)
        if delay is not None:
            self.sim.call_in(delay, self._deliver, message)

    def multicast(self, messages: Iterable[Message]) -> None:
        """:meth:`unicast` each message in order; one kernel entry per arrival time.

        Accounting, drop rules and trace records are those of the
        unicasts.  Survivors that arrive together keep their send order
        inside one :meth:`~repro.sim.kernel.Simulator.call_in_each`.
        """
        now = self.sim.now
        arrivals: Dict[float, Tuple[float, List[Message]]] = {}
        for message in messages:
            delay = self._transmit(message)
            if delay is not None:
                # Keyed by arrival time: two delays can round to one instant.
                when = now + delay
                arrival = arrivals.get(when)
                if arrival is None:
                    arrivals[when] = (delay, [message])
                else:
                    arrival[1].append(message)
        for delay, group in arrivals.values():
            self.sim.call_in_each(delay, self._deliver, group)

    def _deliver(self, message: Message) -> None:
        """Hand an arrived message to its request's callback or its kind handler."""
        # The interface is resolved now, not at send time.
        interface = self._interfaces.get(message.recipient)
        if interface is None:
            return
        if message.in_reply_to is not None:
            on_reply = interface._pending.pop(message.in_reply_to, None)
            if on_reply is not None:
                self.sim.call_in(0.0, on_reply, message)
                return
        handler = interface._handlers.get(message.kind, interface._default_handler)
        if handler is not None:
            handler(message)

    def hop_count(self, source: int, destination: int) -> int:
        """Hops between two nodes (routing shortcut for experiments)."""
        return self.routing.hop_count(source, destination)
