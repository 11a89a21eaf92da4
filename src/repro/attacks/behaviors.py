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


class EquivocatingResponder(NodeBehavior):
    """Replies with a genuine own header that does NOT reference the digest.

    The header authenticates (it is really ours), but the
    ``GetDigest(b^h, v)`` comparison of Algorithm 3 line 21 fails, so
    the validator skips us.  Models a node trying to graft the path
    onto an unrelated branch.
    """

    def answer_req_child(self, node: IoTNode, request: ReqChild) -> Optional[RpyChild]:
        latest = node.store.latest
        if latest is None:
            return None
        honest = super().answer_req_child(node, request)
        if honest is not None and honest.header is not None:
            # Deliberately send some block that is NOT the requested child.
            for block in node.store:
                if block.header.block_id != honest.header.block_id:
                    return RpyChild(header=block.header)
        return RpyChild(header=latest.header)


class SelfishNode(SilentResponder):
    """§IV-D-6: free-rides — generates blocks but never serves queries.

    Identical to :class:`SilentResponder` at the protocol level; kept
    distinct so a scenario's roster names selfishness apart from capture.
    """


class DosFlooder(NodeBehavior):  # repro: allow[test-only-public-name] test fixture: the §IV-D-5 flood
    """§IV-D-5: floods neighbours with digests beyond the puzzle rate.

    The flood happens out-of-band of normal generation: call
    :meth:`flood` to emit ``count`` junk digests.  Honest receivers
    rate-limit via :class:`DigestRateLimiter` (see
    :mod:`repro.attacks.defenses`) and ban the flooder.
    """

    def flood(self, node: IoTNode, count: int) -> None:  # repro: allow[test-only-public-name] test fixture: the §IV-D-5 flood
        """Emit ``count`` junk digests to all neighbours."""
        for i in range(count):
            junk = hash_bytes(f"junk:{node.node_id}:{i}".encode(), node.config.hash_bits)
            node.interface.broadcast_neighbors(
                "digest", (node.node_id, junk), node.config.digest_message_bits
            )
