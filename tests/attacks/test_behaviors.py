"""Unit tests for adversarial behaviours against a live deployment."""

from dataclasses import replace

import pytest

from repro.attacks.behaviors import (
    CorruptResponder,
    EquivocatingResponder,
    SelfishNode,
    SilentResponder,
)
from repro.attacks.sybil import sybil_identities
from repro.core.config import ProtocolConfig
from repro.core.pop.messages import KIND_REQ_CHILD, KIND_RPY_CHILD, ReqChild, RpyChild
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.crypto.hashing import hash_bytes


@pytest.fixture
def attack_config():
    return ProtocolConfig(body_bits=8_000, gamma=2, reply_timeout=0.2)


def deployment_with(behaviors, config, topology, seed=6):
    deployment = TwoLayerDagNetwork(
        config=config, topology=topology, seed=seed, behaviors=behaviors
    )
    workload = SlotSimulation(deployment, validate=False)
    workload.run(8)
    return deployment, workload


def ask_for_child(deployment, asker, responder, digest, origin):
    replies = []
    iface = deployment.node(asker).interface
    iface.on(KIND_RPY_CHILD, replies.append)
    iface.send(
        responder, KIND_REQ_CHILD, ReqChild(digest=digest, verifying_origin=origin), 256
    )
    deployment.sim.run()
    return replies


class TestSilent:
    def test_silent_node_sends_no_reply(self, attack_config, grid9):
        deployment, workload = deployment_with({4: SilentResponder()}, attack_config, grid9)
        target = deployment.node(3).store.by_index(0)
        replies = ask_for_child(
            deployment, 0, 4, target.digest(), 3
        )
        assert replies == []

    def test_silent_node_still_generates_blocks(self, attack_config, grid9):
        deployment, workload = deployment_with({4: SilentResponder()}, attack_config, grid9)
        assert len(deployment.node(4).store) == 8


class TestCorrupt:
    def test_corrupt_reply_fails_signature(self, attack_config, grid9):
        deployment, workload = deployment_with({4: CorruptResponder()}, attack_config, grid9)
        # Pick a digest node 4 *definitely* references: one from its own
        # second block's Δ (generation-order races make guessing which
        # neighbour block it embedded unreliable).
        own_second = deployment.node(4).store.by_index(1).header
        origin, digest = next(iter(own_second.digests.items()))
        replies = ask_for_child(deployment, 0, 4, digest, origin)
        assert len(replies) == 1
        header = replies[0].payload.header
        assert header is not None
        public = deployment.registry.public_key(4)
        assert not header.verify_signature(public)


class TestEquivocating:
    def test_equivocating_reply_fails_digest_check(self, attack_config, grid9):
        deployment, workload = deployment_with(
            {4: EquivocatingResponder()}, attack_config, grid9
        )
        neighbor_block = deployment.node(3).store.by_index(0)
        digest = neighbor_block.digest()
        replies = ask_for_child(deployment, 0, 4, digest, 3)
        assert len(replies) == 1
        header = replies[0].payload.header
        # The returned header is authentic but wrong: Algorithm 3's
        # GetDigest comparison exposes it.
        assert header.digest_from(3) != digest


class TestSelfish:
    def test_selfish_node_silent_until_resumed(self, attack_config, grid9):
        selfish = SelfishNode()
        deployment, workload = deployment_with({4: selfish}, attack_config, grid9)
        neighbor_block = deployment.node(3).store.by_index(0)
        assert ask_for_child(deployment, 0, 4, neighbor_block.digest(), 3) == []
        selfish.resume_cooperation()
        replies = ask_for_child(deployment, 1, 4, neighbor_block.digest(), 3)
        assert len(replies) == 1


class TestForgedRepliesAgainstWarmHeaders:
    """Tampered copies of *warmed* headers must still fail validation.

    Honest headers carry memoised encodings (Δ bytes, signing payload,
    digest); a ``dataclasses.replace`` copy starts cold, so the
    validator re-derives every byte it checks from the forged fields.
    """

    def _parent_and_child(self, deployment):
        """A header of node 4 and a header it references, both warmed."""
        child = deployment.node(4).store.by_index(1).header
        origin, digest = next(
            (o, d) for o, d in child.digests.items() if o != 4
        )
        parent = next(
            b.header for b in deployment.node(origin).store if b.digest() == digest
        )
        for header in (parent, child):
            header.digest(), header.signing_payload(), header.puzzle_fields()
            _ = header.block_id
        return parent, child

    def test_validate_reply_rejects_tamper_and_sybil(self, attack_config, grid9):
        deployment, _ = deployment_with({}, attack_config, grid9)
        parent, child = self._parent_and_child(deployment)
        validator = deployment.node(0).validator()
        digest = parent.digest(attack_config.hash_bits)

        def verdict(header, responder):
            return validator._validate_reply(
                RpyChild(header=header), responder, parent, digest
            )

        assert verdict(child, 4) is child  # the honest reply passes
        tampered_root = replace(child, root=hash_bytes(b"tampered"))
        assert verdict(tampered_root, 4) is None
        grafted = replace(child, digests={**child.digests, 99: digest})
        assert verdict(grafted, 4) is None
        # Same bytes under another registered identity: wrong key.
        assert verdict(replace(child, origin=5), 5) is None
        (identity,) = sybil_identities(attacker=4, count=1)
        forged = identity.forge_header(child)
        assert forged.verify_signature(identity.keypair.public)
        assert verdict(forged, forged.origin) is None  # unregistered

    def test_corrupt_responder_is_counted_and_never_adopted(self, attack_config, grid9):
        deployment, workload = deployment_with(
            {4: CorruptResponder()}, attack_config, grid9
        )
        outcomes = []
        for target in workload.blocks_by_slot[0] + workload.blocks_by_slot[1]:
            for asker in (0, 2, 6, 8):
                if target.origin in (4, asker):
                    continue
                process = deployment.node(asker).verify_block(
                    target.origin, target, fetch_body=False
                )
                deployment.sim.run()
                outcomes.append(process.value)
        assert sum(o.invalid_replies for o in outcomes) > 0
        public = deployment.registry.public_key(4)
        for outcome in outcomes:
            for header in outcome.path:
                if header.origin == 4:
                    # Only node 4's genuine headers (served from caches
                    # of honest paths) may appear, never a tampered one.
                    assert header.verify_signature(public)
