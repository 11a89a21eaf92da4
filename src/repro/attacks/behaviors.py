"""Per-node adversarial behaviours.

Each class overrides one or more :class:`repro.core.node.NodeBehavior`
hooks.  Nodes running these behaviours still *generate* blocks and
digests normally unless noted — the paper's threat model is captured
devices that keep their place in the topology but subvert the
verification protocol.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.block import DataBlock
from repro.core.node import IoTNode, NodeBehavior
from repro.core.pop.messages import BlockFetch, ReqChild, RpyChild
from repro.crypto.hashing import hash_bytes


class SilentResponder(NodeBehavior):
    """Never replies to PoP queries (validator times out, Fig. 5).

    This is the canonical "malicious node" of the evaluation: it
    withholds cooperation, forcing validators to route paths around it.
    """

    def answer_req_child(self, node: IoTNode, request: ReqChild) -> Optional[RpyChild]:
        return None

    def answer_block_fetch(self, node: IoTNode, request: BlockFetch) -> Optional[DataBlock]:
        return None


class CorruptResponder(NodeBehavior):
    """Replies with a tampered header (flipped Merkle root).

    The signature no longer covers the mutated fields, so validators
    reject the reply (Eq. 6 check) — exercised by the
    man-in-the-middle defence tests (§IV-D-4).
    """

    def answer_req_child(self, node: IoTNode, request: ReqChild) -> Optional[RpyChild]:
        honest = super().answer_req_child(node, request)
        if honest is None or honest.header is None:
            return honest
        header = honest.header
        tampered_root = hash_bytes(b"tampered:" + header.root.value, header.root.bits)
        return RpyChild(header=replace(header, root=tampered_root))
