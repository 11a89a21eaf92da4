"""Unit tests for the per-node block store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import BlockHeader, BlockId, DataBlock, build_block, make_body
from repro.core.config import ProtocolConfig
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


class TestStore:
    def test_append_and_latest(self, config):
        store = BlockStore(owner=1)
        assert store.latest is None
        block = own_block(config, 0)
        store.add(block)
        assert store.latest is block
        assert len(store) == 1

    def test_rejects_foreign_blocks(self, config):
        store = BlockStore(owner=2)
        with pytest.raises(ValueError):
            store.add(own_block(config, 0))

    def test_rejects_index_gap(self, config):
        store = BlockStore(owner=1)
        with pytest.raises(ValueError):
            store.add(own_block(config, 5))

    def test_rejects_a_block_older_than_the_latest(self, config):
        store = BlockStore(owner=1)
        store.add(own_block(config, 0, time=10.0))
        with pytest.raises(ValueError, match="older than the latest"):
            store.add(own_block(config, 1, time=5.0))
        assert len(store) == 1
        store.add(own_block(config, 1, time=10.0))  # a tie is not older
        assert len(store) == 2

    def test_get_by_id(self, config):
        store = BlockStore(owner=1)
        block = own_block(config, 0)
        store.add(block)
        assert store.get(BlockId(1, 0)) is block
        assert store.get(BlockId(1, 9)) is None
        assert store.get(BlockId(2, 0)) is None

    def test_size_accounts_all_blocks(self, config):
        store = BlockStore(owner=1)
        blocks = []
        previous = None
        for index in range(3):
            digests = {1: previous.digest()} if previous else {}
            block = own_block(config, index, digests)
            store.add(block)
            blocks.append(block)
            previous = block
        assert store.size_bits(config) == sum(b.size_bits(config) for b in blocks)


class TestChildIndex:
    def test_oldest_child_of(self, config):
        store = BlockStore(owner=1)
        target_digest = hash_bytes(b"target", config.hash_bits)
        first = own_block(config, 0, {9: target_digest})
        second = own_block(config, 1, {9: target_digest})
        store.add(first)
        store.add(second)
        # Both reference the digest; Eq. (11) picks the oldest.
        assert store.oldest_child_of(target_digest) is first

    def test_no_child_returns_none(self, config):
        store = BlockStore(owner=1)
        store.add(own_block(config, 0))
        assert store.oldest_child_of(hash_bytes(b"nothing", config.hash_bits)) is None

    def test_iteration_order(self, config):
        store = BlockStore(owner=1)
        for index in range(3):
            store.add(own_block(config, index))
        assert [b.header.index for b in store] == [0, 1, 2]


def reference_oldest_child_of(store, digest, skip_ids=None):
    """Eq. (10)-(11) by a scan of the whole store: list every child of
    ``digest`` not in ``skip_ids``, take the least (time, position)."""
    children = [
        (block.header.time, at) for at, block in enumerate(store)
        if not (skip_ids and block.block_id in skip_ids)
        and any(parent.value == digest.value for parent in block.header.digests.values())
    ]
    return list(store)[min(children)[1]] if children else None


PARENTS = [hash_bytes(bytes([i])) for i in range(4)]
BODY = make_body(1, 0, ProtocolConfig(body_bits=800, gamma=2))


@st.composite
def stores(draw):
    """A store of up to 12 blocks, times non-decreasing with ties, each
    block's Δ drawn from four parent digests."""
    store = BlockStore(owner=1)
    time = 0.0
    for index in range(draw(st.integers(0, 12))):
        time += draw(st.sampled_from([0.0, 0.5, 1.0]))
        digests = draw(st.dictionaries(st.integers(0, 5), st.sampled_from(PARENTS), max_size=3))
        header = BlockHeader(
            origin=1, index=index, version=1, time=time, root=PARENTS[0],
            digests=digests, nonce=0, signature=b"",
        )
        store.add(DataBlock(header=header, body=BODY))
    return store


class TestForwardScanEqualsReference:
    @given(
        store=stores(),
        digest=st.sampled_from(PARENTS),
        skip=st.one_of(st.none(), st.frozensets(st.builds(BlockId, st.just(1), st.integers(0, 12)))),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_block_for_every_skip_set(self, store, digest, skip):
        assert store.oldest_child_of(digest, skip) is reference_oldest_child_of(store, digest, skip)
