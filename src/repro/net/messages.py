"""The transport-level message envelope.

Every protocol payload (digest broadcast, PoP request/reply, PBFT
phase messages, IOTA gossip) is wrapped in a :class:`Message` whose
``size_bits`` drives the byte accounting in Figs. 7-8.  The envelope
carries a ``kind`` tag so metrics can attribute traffic to protocol
phases (DAG construction vs consensus — Fig. 8(b) vs 8(c)).
"""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple, Optional, Tuple, Union

_next_message_id = itertools.count(1).__next__
_new_tuple = tuple.__new__


class _Envelope(NamedTuple):
    sender: int
    recipient: Union[int, Tuple[int, ...]]
    kind: str
    payload: Any
    size_bits: int
    msg_id: int
    in_reply_to: Optional[int]


class Message(_Envelope):
    """An addressed, sized protocol message (immutable).

    Attributes
    ----------
    sender / recipient:
        Node ids; the transport routes between them.  A fan-out is one
        envelope whose ``recipient`` is the addressees in send order.
    kind:
        Protocol message tag, e.g. ``"digest"``, ``"req_child"``,
        ``"rpy_child"``, ``"pbft.prepare"``, ``"iota.tx"``.
    payload:
        Arbitrary protocol object.
    size_bits:
        Wire size used for communication accounting.
    msg_id:
        Unique id, useful for request/reply matching and replay
        detection (the nonce of §IV-D-5); drawn when not given.
    in_reply_to:
        ``msg_id`` of the request this message answers, or ``None``.
    """

    __slots__ = ()

    def __new__(
        cls, sender: int, recipient: Union[int, Tuple[int, ...]], kind: str, payload: Any,
        size_bits: int, msg_id: Optional[int] = None, in_reply_to: Optional[int] = None,
    ) -> "Message":
        if size_bits < 0:
            raise ValueError(f"message size must be non-negative, got {size_bits}")
        if msg_id is None:
            msg_id = _next_message_id()
        return _new_tuple(cls, (sender, recipient, kind, payload, size_bits, msg_id, in_reply_to))

    @property
    def size_bytes(self) -> float:
        """Size in bytes."""
        return self.size_bits / 8.0

    def reply(self, replier: int, kind: str, payload: Any, size_bits: int) -> "Message":
        """The message ``replier`` answers this one with, back to its sender."""
        return Message(replier, self.sender, kind, payload, size_bits, None, self.msg_id)
