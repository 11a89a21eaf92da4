"""Direct unit tests for the responder functions (Algorithm 4)."""

import dataclasses

import pytest

from repro.core.block import build_block, make_body
from repro.core.config import ProtocolConfig
from repro.core.pop.messages import ReqChild, RpyChild
from repro.core.pop.responder import NO_CHILD, serve_req_child
from repro.core.storage import BlockStore
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair


@pytest.fixture
def config():
    return ProtocolConfig(body_bits=800, gamma=2)


def own_block(config, index, digests=None, time=None):
    return build_block(
        origin=1, index=index, time=float(index) if time is None else time,
        body=make_body(1, index, config), digests=digests or {},
        keypair=KeyPair.generate(1), config=config,
    )


class TestServeReqChild:
    def test_returns_oldest_matching_block(self, config):
        store = BlockStore(owner=1)
        wanted = hash_bytes(b"wanted", config.hash_bits)
        first = own_block(config, 0, {9: wanted})
        second = own_block(config, 1, {9: wanted})
        store.add(first)
        store.add(second)
        reply = serve_req_child(store, ReqChild(digest=wanted, verifying_origin=9))
        assert reply.header is first.header

    def test_nack_for_unknown_digest(self, config):
        store = BlockStore(owner=1)
        store.add(own_block(config, 0))
        reply = serve_req_child(
            store,
            ReqChild(digest=hash_bytes(b"unknown", config.hash_bits), verifying_origin=9),
        )
        assert reply.header is None

    def test_empty_store_nacks(self, config):
        store = BlockStore(owner=1)
        reply = serve_req_child(
            store,
            ReqChild(digest=hash_bytes(b"x", config.hash_bits), verifying_origin=9),
        )
        assert reply.header is None

    def test_every_miss_shares_one_frozen_nack(self, config):
        stores = [BlockStore(owner=1), BlockStore(owner=1)]
        wanted = hash_bytes(b"wanted", config.hash_bits)
        stores[1].add(own_block(config, 0, {9: wanted}))
        replies = [
            serve_req_child(store, ReqChild(digest=hash_bytes(seed, config.hash_bits),
                                            verifying_origin=9))
            for store in stores for seed in (b"x", b"y")
        ]
        assert all(reply is NO_CHILD for reply in replies)
        assert NO_CHILD == RpyChild(header=None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            NO_CHILD.header = stores[1].latest.header
        # A hit is a reply of its own, carrying the oldest child.
        hit = serve_req_child(stores[1], ReqChild(digest=wanted, verifying_origin=9))
        assert hit is not NO_CHILD and hit.header is stores[1].latest.header

    def test_oldest_by_time_not_index(self, config):
        """Eq. (11) orders by generation time; if indices and times ever
        disagree (clock adjustments), time wins."""
        store = BlockStore(owner=1)
        wanted = hash_bytes(b"wanted", config.hash_bits)
        late = own_block(config, 0, {9: wanted}, time=10.0)
        early = own_block(config, 1, {9: wanted}, time=5.0)
        store.add(late)
        store.add(early)
        assert store.oldest_child_of(wanted).header.index == 1

