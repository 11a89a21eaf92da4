"""Unit tests for the message transport and byte accounting."""

import gc
import sys
import weakref

import pytest

from repro.metrics.collector import TrafficLedger
from repro.net.linkmodels import LinkDegradation
from repro.net.transport import Network
from repro.sim.errors import SchedulingError
from repro.sim.kernel import Simulator


@pytest.fixture
def network(line_topology):
    sim = Simulator()
    return Network(sim, line_topology, ledger=TrafficLedger(), per_hop_latency=0.01)


def _frames_above(count):
    """Function names of the ``count`` frames that called the caller."""
    frame, names = sys._getframe(2), []
    while frame is not None and len(names) < count:
        names.append(frame.f_code.co_name)
        frame = frame.f_back
    return names


class TestDelivery:
    def test_unicast_reaches_handler(self, network):
        received = []
        network.attach(3).on("ping", received.append)
        network.attach(0).send(3, "ping", "hello", size_bits=100)
        network.sim.run()
        assert len(received) == 1
        assert received[0].payload == "hello"
        assert received[0].sender == 0

    def test_latency_scales_with_hops(self, network):
        times = []
        network.attach(3).on("ping", lambda m: times.append(network.sim.now))
        network.attach(1).on("ping", lambda m: times.append(network.sim.now))
        source = network.attach(0)
        source.send(3, "ping", None, 10)  # 3 hops
        source.send(1, "ping", None, 10)  # 1 hop
        network.sim.run()
        assert times == [pytest.approx(0.01), pytest.approx(0.03)]

    def test_loopback_delivers_without_traffic(self, network):
        received = []
        iface = network.attach(2)
        iface.on("self", received.append)
        iface.send(2, "self", "me", 100)
        network.sim.run()
        assert len(received) == 1
        assert network.ledger.tx_bits(2) == 0

    def test_default_handler_catches_unknown_kinds(self, network):
        received = []
        network.attach(1).on_any(received.append)
        network.attach(0).send(1, "mystery", None, 10)
        network.sim.run()
        assert len(received) == 1

    def test_unknown_kind_without_handler_is_dropped(self, network):
        network.attach(1)
        network.attach(0).send(1, "mystery", None, 10)
        network.sim.run()  # must not raise


    def test_handler_runs_one_frame_under_the_drain_loop(self, network):
        # _drain -> Network._deliver_to -> handler: a wrapper frame put
        # back on the message path, or a heap entry with a frame of its
        # own, fails here.
        stacks = []
        network.attach(3).on("ping", lambda message: stacks.append(_frames_above(2)))
        network.attach(0).send(3, "ping", None, 10)
        network.sim.run()
        assert stacks == [["_deliver_to", "_drain"]]

    def test_fanned_out_handler_runs_one_frame_under_the_drain_loop(self, network):
        # _drain -> Network._deliver_to -> handler: neither the batch entry
        # nor the partial that binds the envelope has a frame of its own,
        # and every recipient is still one event.
        stacks = []
        for node in (0, 2):
            network.attach(node).on("ping", lambda message: stacks.append(_frames_above(2)))
        sent = network.attach(1).broadcast_neighbors("ping", None, 10)
        assert sent.recipient == (0, 2)
        assert network.sim.pending_count == 2
        network.sim.run()
        assert stacks == [["_deliver_to", "_drain"]] * 2
        assert network.sim.processed_count == 2

    def test_multicast_is_one_send_per_recipient_in_order(self, network):
        arrivals = []
        for node in range(4):
            network.attach(node).on("ping", lambda m, n=node: arrivals.append((network.sim.now, n)))
        sent = network.interface(0).multicast([3, 0, 1, 2], "ping", "x", 10)
        assert (sent.sender, sent.recipient, sent.payload) == (0, (3, 0, 1, 2), "x")
        assert network.sim.pending_count == 4
        network.sim.run()
        assert arrivals == [
            (0.0, 0), (pytest.approx(0.01), 1), (pytest.approx(0.02), 2), (pytest.approx(0.03), 3)
        ]
        assert network.sim.processed_count == 4
        assert network.ledger.message_counts() == {"ping": 4}
        assert network.ledger.tx_bits(0) == 30 and network.ledger.tx_bits(1) == 20

    def test_recipients_that_arrive_together_run_in_send_order(self, network):
        # With no latency the hop counts 3, 0, 1, 2 share one instant: one
        # batch, in the order the sender listed them.
        network.per_hop_latency = 0.0
        arrivals = []
        for node in range(4):
            network.attach(node).on("ping", lambda m, n=node: arrivals.append((network.sim.now, n)))
        for _ in range(2):  # the second send finds the plan memoised
            network.interface(0).multicast([3, 0, 1, 2], "ping", "x", 10)
        assert len(network.sim._heap) == 2
        network.sim.run()
        assert arrivals == [(0.0, 3), (0.0, 0), (0.0, 1), (0.0, 2)] * 2

    def test_every_handler_of_a_fan_out_gets_the_same_envelope(self, network):
        received = []
        for node in range(4):
            network.attach(node).on("ping", received.append)
        sent = network.interface(1).multicast([0, 1, 2, 3], "ping", "x", 10)
        network.sim.run()
        assert len(received) == 4 and all(message is sent for message in received)

    def test_a_recipient_listed_twice_is_sent_to_twice(self, network):
        received = []
        network.attach(2).on("ping", lambda m: received.append(network.sim.now))
        network.attach(0).multicast([2, 1, 2], "ping", None, 10)
        network.sim.run()
        assert received == [pytest.approx(0.02)] * 2
        assert network.ledger.message_counts() == {"ping": 3}
        assert network.ledger.tx_bits(0) == 30 and network.ledger.rx_bits(2) == 20

    def test_unicast_refuses_a_fan_out_envelope(self, network):
        sent = network.attach(0).multicast([1, 2], "ping", None, 10)
        with pytest.raises(TypeError):
            network.unicast(sent)
        assert network.ledger.message_counts() == {"ping": 2}

    def test_empty_fan_out_counts_nothing_and_schedules_nothing(self, network):
        network.attach(0).multicast([], "ping", None, 10)
        network.add_drop_rule(lambda m, a, b: False)
        network.interface(0).multicast(iter(()), "ping", None, 10)
        assert network.sim.pending_count == 0
        assert network.ledger.message_counts() == {} and network.ledger.categories() == []

    def test_negative_size_is_refused_before_anything_is_accounted(self, network):
        source = network.attach(0)
        for rules in ([], [lambda m, a, b: False]):
            for rule in rules:
                network.add_drop_rule(rule)
            with pytest.raises(ValueError):
                source.multicast([1, 2], "ping", None, -1)
            with pytest.raises(ValueError):
                source.send(1, "ping", None, -1)
        assert network.sim.pending_count == 0
        assert network.ledger.message_counts() == {} and network.ledger.categories() == []

    def test_latency_is_read_at_send_time(self, network):
        # A degradation installed and revoked mid-run moves only the
        # messages sent while it is live; in-flight ones keep their time.
        sim, times = network.sim, []
        network.attach(3).on("ping", lambda m: times.append((m.payload, sim.now)))
        source = network.attach(0)
        live = []
        sim.call_at(0.0, source.send, 3, "ping", "before", 10)
        sim.call_at(0.99, source.send, 3, "ping", "in-flight", 10)
        sim.call_at(1.0, lambda: live.append(LinkDegradation(network, loss=0.0, extra_latency=0.005)))
        sim.call_at(1.0, source.send, 3, "ping", "degraded", 10)
        sim.call_at(2.0, lambda: live.pop().revoke())
        sim.call_at(2.0, source.send, 3, "ping", "restored", 10)
        sim.run()
        assert times == [
            ("before", pytest.approx(0.03)), ("in-flight", pytest.approx(1.02)),
            ("degraded", pytest.approx(1.045)), ("restored", pytest.approx(2.03)),
        ]


class TestAccounting:
    def test_every_hop_charged(self, network):
        network.attach(3)
        network.attach(0).send(3, "data", None, size_bits=1000)
        network.sim.run()
        ledger = network.ledger
        # Route 0-1-2-3: nodes 0,1,2 transmit; 1,2,3 receive.
        for transmitter in (0, 1, 2):
            assert ledger.tx_bits(transmitter) == 1000
        for receiver in (1, 2, 3):
            assert ledger.rx_bits(receiver) == 1000
        assert ledger.tx_bits(3) == 0
        assert ledger.rx_bits(0) == 0

    def test_category_mapping(self, line_topology):
        sim = Simulator()
        network = Network(
            sim, line_topology,
            category_fn=lambda kind: "ctrl" if kind.startswith("c.") else "data",
        )
        network.attach(1)
        network.attach(0).send(1, "c.ping", None, 10)
        network.attach(0).send(1, "blob", None, 20)
        sim.run()
        assert network.ledger.tx_bits(0, ["ctrl"]) == 10
        assert network.ledger.tx_bits(0, ["data"]) == 20

    def test_message_count(self, network):
        network.attach(1)
        for _ in range(3):
            network.attach(0).send(1, "ping", None, 10)
        network.sim.run()
        assert network.ledger.message_count("ping") == 3


class TestBroadcast:
    def test_neighbor_broadcast_hits_all_neighbors(self, grid9):
        sim = Simulator()
        network = Network(sim, grid9)
        received = []
        for node in grid9.node_ids:
            iface = network.attach(node)
            iface.on("digest", lambda m, n=node: received.append(n))
        network.interface(4).broadcast_neighbors("digest", None, 256)
        sim.run()
        assert sorted(received) == sorted(grid9.neighbors(4))

    def test_broadcast_charges_per_neighbor(self, grid9):
        sim = Simulator()
        network = Network(sim, grid9)
        for node in grid9.node_ids:
            network.attach(node)
        network.interface(4).broadcast_neighbors("digest", None, 256)
        sim.run()
        assert network.ledger.tx_bits(4) == 256 * len(grid9.neighbors(4))


class TestRequestReply:
    def test_reply_resolves_request(self, network):
        responder = network.attach(3)
        responder.on("ask", lambda m: responder.reply(m, "answer", m.payload * 2, 50))
        replies = []
        network.attach(0).request(3, "ask", 21, 10, timeout=1.0, on_reply=replies.append)
        network.sim.run()
        assert [m.payload for m in replies] == [42]  # once, and not again at expiry

    def test_reply_reaches_the_callback_in_an_event_of_its_own(self, network):
        # _drain -> on_reply, one step after the delivery: a validator's
        # continuation never runs inside _deliver.
        responder = network.attach(3)
        responder.on("ask", lambda m: responder.reply(m, "answer", None, 10))
        stacks = []
        network.attach(0).request(
            3, "ask", None, 10, timeout=1.0, on_reply=lambda m: stacks.append(_frames_above(1))
        )
        sim = network.sim
        assert sim.step() and sim.step()  # request delivery, reply delivery
        assert stacks == [] and sim.processed_count == 2
        assert sim.step() and sim.now == pytest.approx(0.06)
        assert stacks == [["_drain"]] and sim.processed_count == 3

    def test_each_recipient_of_a_fan_out_replies_as_itself(self, network):
        # The fan-out's envelope is addressed to a tuple; a reply is sent
        # by the node that answers, routed and charged as its own unicast.
        answers = []
        for node in (1, 3):
            interface = network.attach(node)
            interface.on("ask", lambda m, i=interface: answers.append(i.reply(m, "answer", i.node_id, 50)))
        heard = []
        asker = network.attach(0)
        asker.on("answer", lambda m: heard.append((network.sim.now, m.sender, m.payload)))
        asked = asker.multicast([1, 3], "ask", None, 10)
        network.sim.run()
        assert [(m.sender, m.recipient, m.in_reply_to) for m in answers] == [
            (1, 0, asked.msg_id), (3, 0, asked.msg_id)
        ]
        assert heard == [(pytest.approx(0.02), 1, 1), (pytest.approx(0.06), 3, 3)]
        assert network.ledger.message_counts() == {"answer": 2, "ask": 2}
        # 3's answer crosses 2 and 1; 1's answer is one hop.
        assert [network.ledger.tx_bits(n, ["answer"]) for n in range(4)] == [0, 100, 50, 50]
        assert network.ledger.rx_bits(0, ["answer"]) == 100

    def test_timeout_yields_none(self, network):
        network.attach(3)  # no handler: silent
        replies = []
        network.attach(0).request(3, "ask", None, 10, timeout=0.5, on_reply=replies.append)
        network.sim.run()
        assert replies == [None]
        # request delivery, the expiry, the callback's own event
        assert network.sim.now == 0.5 and network.sim.processed_count == 3

    def test_late_reply_after_timeout_is_ignored(self, network):
        responder = network.attach(3)

        def slow_answer(message):
            network.sim.call_in(2.0, lambda: responder.reply(message, "late", None, 10))

        responder.on("ask", slow_answer)
        replies = []
        network.attach(0).request(3, "ask", None, 10, timeout=0.5, on_reply=replies.append)
        network.sim.run()
        assert replies == [None]  # timeout won; late reply dropped

    def test_late_reply_does_not_resurrect_the_waiter(self, network):
        responder, requester = network.attach(3), network.attach(0)
        strays, replies = [], []
        requester.on("late", strays.append)
        responder.on("ask", lambda m: network.sim.call_in(2.0, responder.reply, m, "late", "x", 10))
        requester.request(3, "ask", None, 10, timeout=0.5, on_reply=replies.append)
        network.sim.run(until=1.0)
        assert replies == [None]
        assert requester._pending == {}
        network.sim.run()
        # The reply found no request waiting: it went to the kind handler
        # like any unsolicited message, and the callback was not called again.
        assert requester._pending == {}
        assert replies == [None]
        assert [m.payload for m in strays] == ["x"]

    def test_answered_request_is_released_before_its_timeout(self, network):
        class Payload:
            pass

        class Callback:
            def __call__(self, message):
                kinds.append(message.kind)

        responder = network.attach(3)
        responder.on("ask", lambda m: responder.reply(m, "answer", None, 10))
        kinds = []
        payload, callback = Payload(), Callback()
        alive = [weakref.ref(payload), weakref.ref(callback)]
        network.attach(0).request(3, "ask", payload, 10, timeout=5.0, on_reply=callback)
        del payload, callback
        network.sim.run(until=1.0)  # round trip is 0.06; the timeout is still queued
        assert kinds == ["answer"]
        assert network.sim.pending_count == 1
        gc.collect()
        assert [ref() for ref in alive] == [None, None]

    def test_expiry_after_a_reply_is_still_one_event(self, network):
        responder = network.attach(3)
        responder.on("ask", lambda m: responder.reply(m, "answer", None, 10))
        replies = []
        network.attach(0).request(3, "ask", None, 10, timeout=5.0, on_reply=replies.append)
        network.sim.run(until=1.0)
        # request delivery, reply delivery, the callback's own event
        assert network.sim.processed_count == 3
        network.sim.run()
        assert network.sim.now == 5.0
        assert network.sim.processed_count == 4  # the no-op expiry is counted
        assert network.sim.cancelled_count == 0
        assert [m.kind for m in replies] == ["answer"]

    def test_negative_timeout_is_refused_before_anything_is_sent(self, network):
        network.attach(3)
        requester = network.attach(0)
        with pytest.raises(SchedulingError):
            requester.request(3, "ask", None, 10, timeout=-0.5, on_reply=lambda m: None)
        # No message on the medium, no pending entry that nothing would expire.
        assert requester._pending == {}
        assert network.sim.pending_count == 0
        assert network.ledger.message_counts() == {}


class TestDropRules:
    def test_drop_rule_eats_message(self, network):
        received = []
        network.attach(3).on("ping", received.append)
        network.add_drop_rule(lambda m, a, b: (a, b) == (1, 2))
        network.attach(0).send(3, "ping", None, 100)
        network.sim.run()
        assert received == []

    def test_traffic_before_drop_still_charged(self, network):
        network.attach(3)
        network.add_drop_rule(lambda m, a, b: (a, b) == (1, 2))
        network.attach(0).send(3, "ping", None, 100)
        network.sim.run()
        assert network.ledger.tx_bits(0) == 100
        assert network.ledger.rx_bits(1) == 100
        assert network.ledger.tx_bits(1) == 100
        assert network.ledger.rx_bits(2) == 0
        assert network.ledger.tx_bits(2) == 0
        assert network.ledger.rx_bits(3) == 0

    def test_rule_that_never_fires_leaves_ledger_unchanged(self, grid9):
        """No rules installed ≡ one rule that always answers False."""

        def drive(rules):
            sim = Simulator()
            network = Network(sim, grid9, per_hop_latency=0.01)
            for rule in rules:
                network.add_drop_rule(rule)
            delivered = []
            for node in grid9.node_ids:
                network.attach(node).on(
                    "data", lambda m, n=node: delivered.append((sim.now, n, m.sender))
                )
            for source in grid9.node_ids:
                network.interface(source).broadcast_neighbors("digest", None, 256)
                for target in grid9.node_ids:
                    network.interface(source).send(target, "data", None, 1000 + source)
            sim.run()
            ledger = network.ledger
            return (
                delivered,
                sim.processed_count,
                ledger.message_counts(),
                {n: (ledger.tx_bits(n), ledger.rx_bits(n)) for n in grid9.node_ids},
            )

        consulted = []

        def never(message, hop_from, hop_to):
            consulted.append((hop_from, hop_to))
            return False

        assert drive([never]) == drive([])
        assert consulted  # the rule really was asked, once per hop

    def test_rules_after_the_one_that_fires_are_not_asked(self, network):
        asked = []
        network.attach(3)
        network.add_drop_rule(lambda m, a, b: (a, b) == (0, 1))
        network.add_drop_rule(lambda m, a, b: asked.append((a, b)) or False)
        network.attach(0).send(3, "ping", None, 100)
        network.sim.run()
        assert asked == []

    def test_clear_drop_rules(self, network):
        received = []
        network.attach(3).on("ping", received.append)
        network.add_drop_rule(lambda m, a, b: True)
        network.clear_drop_rules()
        network.attach(0).send(3, "ping", None, 100)
        network.sim.run()
        assert len(received) == 1

    def test_attach_unknown_node_raises(self, network):
        with pytest.raises(KeyError):
            network.attach(99)
