"""Unit tests for the message envelope."""

import pytest

from repro.net.messages import Message


class TestMessage:
    def test_unique_ids(self):
        a = Message(0, 1, "k", None, 10)
        b = Message(0, 1, "k", None, 10)
        assert a.msg_id != b.msg_id

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(0, 1, "k", None, -1)

    def test_size_bytes(self):
        assert Message(0, 1, "k", None, 80).size_bytes == 10.0

    def test_reply_swaps_endpoints(self):
        request = Message(3, 7, "ask", "q", 10)
        reply = request.reply(7, "answer", "a", 20)
        assert reply.sender == 7
        assert reply.recipient == 3
        assert reply.in_reply_to == request.msg_id

    def test_fresh_message_has_no_reply_marker(self):
        assert Message(0, 1, "k", None, 10).in_reply_to is None

    def test_keyword_construction_and_field_names(self):
        message = Message(sender=2, recipient=5, kind="k", payload={"a": 1}, size_bits=16)
        assert (message.sender, message.recipient, message.kind) == (2, 5, "k")
        assert message.payload == {"a": 1}
        assert message.size_bits == 16

    def test_explicit_msg_id_and_reply_marker_are_kept(self):
        message = Message(0, 1, "k", None, 10, msg_id=77, in_reply_to=5)
        assert (message.msg_id, message.in_reply_to) == (77, 5)

    def test_ids_increase_monotonically(self):
        ids = [Message(0, 1, "k", None, 10).msg_id for _ in range(5)]
        assert ids == sorted(set(ids))
        assert Message(0, 1, "k", None, 10).reply(1, "r", None, 1).msg_id > ids[-1]

    @pytest.mark.parametrize("name", ["sender", "payload", "msg_id", "size_bits", "extra"])
    def test_attribute_assignment_rejected(self, name):
        message = Message(0, 1, "k", None, 10)
        with pytest.raises(AttributeError):
            setattr(message, name, 3)

    def test_reply_carries_kind_payload_and_size(self):
        reply = Message(3, 7, "ask", "q", 10).reply(7, "answer", "a", 20)
        assert (reply.kind, reply.payload, reply.size_bits) == ("answer", "a", 20)

    def test_negative_size_rejected_on_reply_too(self):
        with pytest.raises(ValueError):
            Message(3, 7, "ask", "q", 10).reply(7, "answer", "a", -20)

    def test_reply_to_a_fan_out_comes_from_the_replier_not_the_addressee_tuple(self):
        fan_out = Message(3, (5, 7, 9), "ask", "q", 10)
        reply = fan_out.reply(7, "answer", "a", 20)
        assert (reply.sender, reply.recipient, reply.in_reply_to) == (7, 3, fan_out.msg_id)
