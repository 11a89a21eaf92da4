"""Property tests pinning the transport (stored hop pairs, planned and batched fan-outs) to a hop-by-hop reference."""

import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import TrafficLedger
from repro.net.linkmodels import (
    LinkDegradation,
    bandwidth_latency,
    distance_proportional_latency,
    install_latency_model,
)
from repro.net.messages import Message
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


class TestFanoutPlan:
    @given(_EDGES, st.lists(st.integers(0, 63), max_size=10), st.integers(0, 63))
    @settings(max_examples=150, deadline=None)
    def test_plan_is_what_the_hop_walks_add_up_to(self, edges, picks, start):
        table = RoutingTable(explicit_topology(edges))
        nodes = table.topology.node_ids
        source = nodes[start % len(nodes)]
        destinations = tuple(nodes[pick % len(nodes)] for pick in picks)  # repeats and self included
        plan = table.fanout_plan(source, destinations)
        routes = [table.hops[source].get(destination) for destination in destinations]
        if None in routes:
            assert plan is None
            return
        tx, rx, arrivals = plan
        # Multiplicities in the order the walks first meet each node.
        assert list(tx) == list(Counter(a for route in routes for a, _ in route).items())
        assert list(rx) == list(Counter(b for route in routes for _, b in route).items())
        # Destinations by hop count: counts in first-appearance order, members in send order.
        assert [count for count, _ in arrivals] == list(dict.fromkeys(map(len, routes)))
        for count, group in arrivals:
            assert list(group) == [d for d, route in zip(destinations, routes) if len(route) == count]
        assert table.fanout_plan(source, tuple(destinations)) is plan  # memoised


class _HopByHopNetwork(Network):
    """The transport as it walked a route before the pairs were stored.

    Every message is its own envelope, its own walk and its own kernel
    entry: a fan-out is a loop of sends.
    """

    def multicast(self, sender, recipients, kind, payload, size_bits):
        messages = [Message(sender, recipient, kind, payload, size_bits) for recipient in recipients]
        for message in messages:
            self.unicast(message)
        return messages

    def unicast(self, message):
        category = self.category_fn(message.kind)
        self.ledger.record_message(message.kind)
        if message.sender == message.recipient:
            self.sim.call_in(0.0, partial(self._deliver_to, message, message.recipient))
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
        if self.link_latency is None:
            delay = self.per_hop_latency * (len(route) - 1)
        else:
            delay = sum(self.link_latency(a, b, message.size_bits) for a, b in zip(route, route[1:]))
        self.sim.call_in(delay, partial(self._deliver_to, message, message.recipient))


#: One step of a schedule: (time, what, a, b, size) — node picks are taken modulo the node count.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5]),
        st.sampled_from([
            "send", "send", "loopback", "request", "degrade", "restore", "cut", "mend",
            "push", "push", "fan", "fan", "fan", "block", "model", "sized-model", "unmodel",
        ]),
        st.integers(0, 63), st.integers(0, 63), st.integers(0, 4096),
    ),
    min_size=1, max_size=30,
)


def _drive(network_class, edges, steps, per_hop_latency=0.01):
    """Replay ``steps`` on a fresh network; everything an observer could compare."""
    topology = explicit_topology(edges)
    nodes = topology.node_ids
    sim = Simulator()
    tracer = Tracer(enabled=True, keep=True)
    network = network_class(
        sim, topology, ledger=TrafficLedger(), per_hop_latency=per_hop_latency,
        category_fn=lambda kind: kind.split(".")[0], tracer=tracer,
    )
    delivered, answers = [], []
    #: Per send call, the message ids it drew: one, or on the reference one
    #: per recipient.  A blob's payload is the index of the call that sent it.
    drawn = []

    def on_blob(node, message):
        assert message.msg_id in drawn[message.payload]
        delivered.append((
            sim.now, node, message.sender, message.size_bits, message.payload,
            sim.processed_count, sim.pending_count,
        ))

    for node in nodes:
        interface = network.attach(node)
        interface.on("data.blob", partial(on_blob, node))
        interface.on("ctl.ask", lambda m, i=interface: i.reply(m, "ctl.answer", m.payload, 64))
    state = {"degradation": None, "cut": None, "block": None}

    def act(what, a, b, size):
        source, target = nodes[a % len(nodes)], nodes[b % len(nodes)]
        call = len(drawn)
        if what == "send":
            drawn.append([network.interface(source).send(target, "data.blob", call, size).msg_id])
        elif what == "loopback":
            drawn.append([network.interface(source).send(source, "data.blob", call, size).msg_id])
        elif what == "request":
            network.interface(source).request(
                target, "ctl.ask", size, 128, timeout=0.25,
                on_reply=lambda m: answers.append((sim.now, source, None if m is None else m.payload)),
            )
        elif what in ("push", "fan"):
            if what == "push":
                chosen = list(topology.sorted_neighbors[source])
                sent = network.interface(source).broadcast_neighbors("data.blob", call, size)
            else:
                # Any subset in any order: the sender itself, multi-hop and
                # unroutable recipients included.
                chosen = [n for i, n in enumerate(nodes) if (b + size) >> i & 1]
                if size % 2:
                    chosen.reverse()
                sent = network.interface(source).multicast(iter(chosen), "data.blob", call, size)
            if network_class is Network:
                # One envelope with one id, addressed to everyone in send order.
                assert (sent.sender, sent.recipient, sent.size_bits) == (source, tuple(chosen), size)
                sent = [sent]
            else:
                assert [m.recipient for m in sent] == chosen
            drawn.append([m.msg_id for m in sent])
        elif what == "block" and state["block"] is None:
            # Fires in the middle of a fan-out that has ``target`` among its recipients.
            state["block"] = lambda message, hop_from, hop_to: hop_to == target
            network.add_drop_rule(state["block"])
        elif what == "model":
            install_latency_model(network, distance_proportional_latency(0.003 * (1 + size % 3)))
        elif what == "sized-model":
            install_latency_model(network, bandwidth_latency(1e5, base=0.002), size_aware=True)
        elif what == "unmodel":
            network.link_latency = None
        elif what == "degrade" and state["degradation"] is None:
            state["degradation"] = LinkDegradation(network, loss=0.3, extra_latency=0.004, rng=random.Random(size))
        elif what == "restore" and state["degradation"] is not None:
            state["degradation"].revoke()
            state["degradation"] = None
        elif what == "cut" and state["cut"] is None:
            # Fires mid-route for anything relayed through ``target``.
            state["cut"] = lambda message, hop_from, hop_to: hop_from == target
            network.add_drop_rule(state["cut"])
        elif what == "mend":
            for name in ("cut", "block"):
                if state[name] is not None:
                    network.remove_drop_rule(state[name])
                    state[name] = None

    for time, what, a, b, size in steps:
        sim.call_at(time, act, what, a, b, size)
    sim.run()
    ledger = network.ledger
    # Ids are unique and increase from send call to send call.
    ids = [msg_id for call_ids in drawn for msg_id in call_ids]
    assert ids == sorted(set(ids))
    return {
        "delivered": delivered,
        "answers": answers,
        "traffic": {n: (dict(ledger._tx.get(n, {})), dict(ledger._rx.get(n, {}))) for n in nodes},
        "ledger order": (list(ledger._tx), list(ledger._rx), list(ledger.snapshot_tx())),
        "messages": ledger.message_counts(),
        "trace": [(r.time, r.category, r.node, r.detail) for r in tracer.records],
        "clock": (sim.now, sim.processed_count, sim.cancelled_count),
        "latency": network.per_hop_latency,
    }


class TestUnicastMatchesHopByHopWalk:
    # At 0.0 every hop count arrives at once; 1e-18 is absorbed by any later clock reading.
    @given(_EDGES, _STEPS, st.sampled_from([0.01, 0.01, 0.0, 1e-18]))
    @settings(max_examples=300, deadline=None)
    def test_same_ledger_deliveries_trace_and_event_count(self, edges, steps, latency):
        assert _drive(Network, edges, steps, latency) == _drive(_HopByHopNetwork, edges, steps, latency)

    @pytest.mark.parametrize("latency", [0.01, 0.0, 1e-18])
    def test_one_fan_out_before_while_and_after_each_fault(self, latency):
        # Star 0-{1,2,4} with the chain 2-3; 0 sends to everyone, itself
        # included, over and over: planned, walked while a rule, a
        # degradation or a link model is installed, planned again.
        edges = [(0, 1), (0, 2), (0, 4), (2, 3)]
        fan, idle = ("fan", 0, 0b11111, 0), (0, 0, 0)
        steps = [
            (0.0, *fan), (0.0, *fan),
            (0.5, "block", 0, 2, 0), (0.5, *fan), (0.5, "mend", *idle), (0.5, *fan),
            (1.0, "degrade", 0, 0, 3), (1.0, *fan), (1.0, "restore", *idle), (1.0, *fan),
            (2.0, "model", *idle), (2.0, *fan), (2.0, "unmodel", *idle), (2.0, *fan),
            (3.5, "cut", 0, 2, 0), (3.5, *fan), (3.5, "mend", *idle), (3.5, *fan),
        ]
        observed = _drive(Network, edges, steps, latency)
        assert observed == _drive(_HopByHopNetwork, edges, steps, latency)
        arrivals = {}
        for time, node, _sender, _size, call, *_ in observed["delivered"]:
            arrivals.setdefault(call, []).append(node)
        # Calls 0, 1, 3, 5, 7 and 9 found nothing installed: by hop count,
        # or in send order where the latency is nothing beside the clock.
        by_hops, as_sent = [0, 1, 2, 4, 3], [0, 1, 2, 3, 4]
        assert [arrivals[call] for call in (0, 1, 3, 5, 7, 9)] == {
            0.01: [by_hops] * 6, 0.0: [as_sent] * 6, 1e-18: [by_hops] * 2 + [as_sent] * 4,
        }[latency]
        # Under the rules 2, and 3 behind it, are lost; the loss is seeded.
        assert arrivals[2] == [0, 1, 4] and arrivals[8] == [0, 1, 2, 4]
        assert sorted(arrivals[6]) == [0, 1, 2, 3, 4] and len(arrivals[4]) < 5
        assert observed["messages"] == {"data.blob": 50}

    def test_fan_outs_covering_every_case(self):
        # Star 0-{1,2,4} with the chain 2-3 and the island 5-6; under the
        # distance model the three links out of 0 are 1, 2 and 4 m long.
        edges = [(0, 1), (0, 2), (0, 4), (2, 3), (5, 6)]
        everyone = 0b1111111
        steps = [
            (0.0, "push", 0, 0, 800), (0.0, "fan", 0, everyone, 0), (0.0, "push", 2, 0, 300),
            (0.5, "block", 0, 2, 0), (0.5, "fan", 0, everyone, 0), (0.5, "push", 0, 0, 100),
            (1.0, "mend", 0, 0, 0), (1.0, "degrade", 0, 0, 3), (1.0, "fan", 0, everyone, 0),
            (1.0, "fan", 3, everyone - 1, 1),
            (2.0, "restore", 0, 0, 0), (2.0, "model", 0, 0, 0), (2.0, "push", 0, 0, 640),
            (2.0, "fan", 0, everyone, 0), (2.5, "sized-model", 0, 0, 0), (2.5, "fan", 0, everyone, 2000),
            (3.5, "unmodel", 0, 0, 0), (3.5, "push", 0, 0, 10),
        ]
        observed = _drive(Network, edges, steps)
        assert observed == _drive(_HopByHopNetwork, edges, steps)
        assert _drive(Network, edges, steps, 0.0) == _drive(_HopByHopNetwork, edges, steps, 0.0)
        assert {r[1] for r in observed["trace"]} == {"net.unroutable", "net.dropped"}
        # Seven recipients from 0: loopback now, 1/2/4 after one hop, 3 after two, 5 and 6 never.
        first_fan = [(time, node) for time, node, sender, size, *_ in observed["delivered"] if size == 0][:5]
        assert first_fan == [(0.0, 0), (0.01, 1), (0.01, 2), (0.01, 4), (0.02, 3)]
        # Under the distance model the same push lands in link-length order.
        modelled = [
            (round(time - 2.0, 6), node)
            for time, node, _sender, size, *_ in observed["delivered"] if size == 640
        ]
        assert modelled == [(0.003, 1), (0.006, 2), (0.012, 4)]

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
