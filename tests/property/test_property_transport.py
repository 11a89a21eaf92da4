"""Property tests pinning the stored-hop-pair transport to a hop-by-hop reference."""

import random
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import TrafficLedger
from repro.net.linkmodels import LinkDegradation
from repro.net.routing import RoutingTable
from repro.net.topology import explicit_topology
from repro.net.transport import Network
from repro.sim.kernel import Simulator
from repro.sim.tracing import Tracer

_NODES = 8
#: Random graphs over at most eight nodes, often disconnected.
_EDGES = st.lists(
    st.tuples(st.integers(0, _NODES - 1), st.integers(0, _NODES - 1)).filter(lambda e: e[0] != e[1]),
    min_size=1, max_size=14,
)


def _assert_hops_match_paths(table):
    nodes = table.topology.node_ids
    for source in nodes:
        assert table.hops[source][source] == ()
        for destination in nodes:
            try:
                path = table.path(source, destination)
            except ValueError:
                assert destination not in table.hops[source]
                continue
            assert table.hops[source][destination] == tuple(zip(path, path[1:]))


class TestStoredHopPairs:
    @given(_EDGES, st.sets(st.integers(0, _NODES - 1), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_hops_are_the_zipped_path_before_and_after_node_removal(self, edges, removed):
        topology = explicit_topology(edges)
        _assert_hops_match_paths(RoutingTable(topology))
        _assert_hops_match_paths(RoutingTable(topology.subgraph_without(removed)))


class _HopByHopNetwork(Network):
    """The transport as it walked a route before the pairs were stored."""

    def unicast(self, message):
        category = self.category_fn(message.kind)
        self.ledger.record_message(message.kind)
        if message.sender == message.recipient:
            self.sim.call_in(0.0, partial(self._deliver, message))
            return
        try:
            route = self.routing.path(message.sender, message.recipient)
        except ValueError:
            self.tracer.emit(self.sim.now, "net.unroutable", message.sender,
                             recipient=message.recipient, kind=message.kind)
            return
        for hop_index in range(len(route) - 1):
            hop_from, hop_to = route[hop_index], route[hop_index + 1]
            self.ledger.record_tx(hop_from, category, message.size_bits)
            for rule in self._drop_rules:
                if rule(message, hop_from, hop_to):
                    self.tracer.emit(self.sim.now, "net.dropped", hop_from,
                                     hop_to=hop_to, kind=message.kind)
                    return
            self.ledger.record_rx(hop_to, category, message.size_bits)
        self.sim.call_in(self.per_hop_latency * (len(route) - 1), partial(self._deliver, message))


#: One step of a schedule: (time, what, a, b, size) — node picks are taken modulo the node count.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5]),
        st.sampled_from(["send", "send", "send", "loopback", "request", "degrade", "restore", "cut", "mend"]),
        st.integers(0, 63), st.integers(0, 63), st.integers(0, 4096),
    ),
    min_size=1, max_size=30,
)


def _drive(network_class, edges, steps):
    """Replay ``steps`` on a fresh network; everything an observer could compare."""
    topology = explicit_topology(edges)
    nodes = topology.node_ids
    sim = Simulator()
    tracer = Tracer(enabled=True, keep=True)
    network = network_class(
        sim, topology, ledger=TrafficLedger(), per_hop_latency=0.01,
        category_fn=lambda kind: kind.split(".")[0], tracer=tracer,
    )
    delivered, answers = [], []
    for node in nodes:
        interface = network.attach(node)
        interface.on("data.blob", lambda m, n=node: delivered.append((sim.now, n, m.sender, m.size_bits)))
        interface.on("ctl.ask", lambda m, i=interface: i.reply(m, "ctl.answer", m.payload, 64))
    state = {"degradation": None, "cut": None}

    def act(what, a, b, size):
        source, target = nodes[a % len(nodes)], nodes[b % len(nodes)]
        if what == "send":
            network.interface(source).send(target, "data.blob", None, size)
        elif what == "loopback":
            network.interface(source).send(source, "data.blob", None, size)
        elif what == "request":
            waiter = network.interface(source).request(target, "ctl.ask", size, 128, timeout=0.25)
            waiter.callbacks.append(
                lambda ev: answers.append((sim.now, source, None if ev.value is None else ev.value.payload))
            )
        elif what == "degrade" and state["degradation"] is None:
            state["degradation"] = LinkDegradation(network, loss=0.3, extra_latency=0.004, rng=random.Random(size))
        elif what == "restore" and state["degradation"] is not None:
            state["degradation"].revoke()
            state["degradation"] = None
        elif what == "cut" and state["cut"] is None:
            # Fires mid-route for anything relayed through ``target``.
            state["cut"] = lambda message, hop_from, hop_to: hop_from == target
            network.add_drop_rule(state["cut"])
        elif what == "mend" and state["cut"] is not None:
            network.remove_drop_rule(state["cut"])
            state["cut"] = None

    for time, what, a, b, size in steps:
        sim.call_at(time, act, what, a, b, size)
    sim.run()
    ledger = network.ledger
    return {
        "delivered": delivered,
        "answers": answers,
        "traffic": {n: (dict(ledger._tx.get(n, {})), dict(ledger._rx.get(n, {}))) for n in nodes},
        "messages": ledger.message_counts(),
        "trace": [(r.time, r.category, r.node, r.detail) for r in tracer.records],
        "clock": (sim.now, sim.processed_count, sim.cancelled_count),
        "latency": network.per_hop_latency,
    }


class TestUnicastMatchesHopByHopWalk:
    @given(_EDGES, _STEPS)
    @settings(max_examples=200, deadline=None)
    def test_same_ledger_deliveries_trace_and_event_count(self, edges, steps):
        assert _drive(Network, edges, steps) == _drive(_HopByHopNetwork, edges, steps)

    def test_schedule_covering_every_case(self):
        # line 0-1-2-3 plus the island 4-5: a mid-route cut, an unroutable
        # recipient, a loopback and a degradation installed then revoked.
        edges = [(0, 1), (1, 2), (2, 3), (4, 5)]
        steps = [
            (0.0, "send", 0, 3, 1000), (0.0, "loopback", 2, 2, 500), (0.0, "send", 0, 4, 700),
            (0.5, "cut", 0, 1, 0), (0.5, "send", 0, 3, 1000), (0.5, "request", 0, 3, 9),
            (1.0, "mend", 0, 0, 0), (1.0, "degrade", 0, 0, 5), (1.0, "send", 3, 0, 800),
            (1.0, "request", 3, 0, 11), (2.0, "restore", 0, 0, 0), (2.0, "send", 0, 3, 1000),
            (2.0, "request", 1, 2, 13),
        ]
        observed = _drive(Network, edges, steps)
        assert observed == _drive(_HopByHopNetwork, edges, steps)
        # The cut at relay 1 charged 0's transmission and 1's reception, then 1's attempt.
        categories = {r[1] for r in observed["trace"]}
        assert categories == {"net.unroutable", "net.dropped"}
        assert observed["traffic"][0][0]["data"] >= 3000
        assert observed["traffic"][4] == ({}, {})
        assert observed["latency"] == 0.01
