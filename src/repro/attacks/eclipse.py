"""Eclipse attack: isolating a victim from the rest of the network.

An eclipse attacker controls the victim's links and filters traffic.
Modelled as a transport drop rule: PoP messages crossing the victim's
edges are discarded, while digest gossip may be allowed through
(partial eclipse) or not (full eclipse).
"""

from __future__ import annotations

from repro.net.messages import Message
from repro.net.transport import DropRule


#: The message kinds an eclipse eats: PoP requests and replies, and
#: body fetches.  Digest gossip still flows.
_ECLIPSED_KINDS = frozenset(("req_child", "rpy_child", "block_fetch", "block_data"))


def eclipse_victim(victim: int) -> DropRule:
    """Drop rule eclipsing ``victim`` for :data:`_ECLIPSED_KINDS`.

    Install with :meth:`repro.net.transport.Network.add_drop_rule`.
    Any matching message entering or leaving the victim's radio is
    eaten by the attacker.
    """
    def rule(message: Message, hop_from: int, hop_to: int) -> bool:
        if message.kind not in _ECLIPSED_KINDS:
            return False
        return hop_from == victim or hop_to == victim

    return rule
