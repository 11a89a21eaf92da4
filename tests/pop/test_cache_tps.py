"""Unit tests for the header cache (H_i) and TPS (Algorithm 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import BlockHeader, BlockId, build_block, make_body
from repro.core.config import ProtocolConfig
from repro.core.pop.cache import HeaderCache
from repro.core.pop.tps import trust_path_selection
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair


@pytest.fixture
def config():
    return ProtocolConfig(body_bits=800, gamma=2)


def chain_blocks(config, origins):
    """Blocks chained head-to-tail through the given origins."""
    blocks = []
    index_per_origin = {}
    previous = None
    for origin in origins:
        index = index_per_origin.get(origin, 0)
        index_per_origin[origin] = index + 1
        digests = {}
        if previous is not None:
            digests[previous.header.origin] = previous.digest(config.hash_bits)
        block = build_block(
            origin=origin, index=index, time=float(len(blocks)),
            body=make_body(origin, index, config), digests=digests,
            keypair=KeyPair.generate(origin), config=config,
        )
        blocks.append(block)
        previous = block
    return blocks


class TestCache:
    def test_add_and_get(self, config):
        cache = HeaderCache()
        (block,) = chain_blocks(config, [1])
        assert cache.add(block.header)
        assert cache.get(block.block_id) is block.header
        assert block.block_id in cache
        assert len(cache) == 1

    def test_duplicate_add_returns_false(self, config):
        cache = HeaderCache()
        (block,) = chain_blocks(config, [1])
        cache.add(block.header)
        assert not cache.add(block.header)
        assert len(cache) == 1

    def test_find_child(self, config):
        cache = HeaderCache()
        parent, child = chain_blocks(config, [1, 2])
        cache.add(child.header)
        found = cache.find_child(parent.digest(config.hash_bits))
        assert found is child.header

    def test_find_child_prefers_oldest(self, config):
        """Mirrors the responder's Eq. (11) choice."""
        cache = HeaderCache()
        parent, older, _ = chain_blocks(config, [1, 2, 3])
        # Build a second, younger child of `parent` from origin 4.
        younger = build_block(
            origin=4, index=0, time=99.0,
            body=make_body(4, 0, config),
            digests={1: parent.digest(config.hash_bits)},
            keypair=KeyPair.generate(4), config=config,
        )
        cache.add(younger.header)
        cache.add(older.header)
        found = cache.find_child(parent.digest(config.hash_bits))
        assert found is older.header

    def test_find_child_skips_ids(self, config):
        cache = HeaderCache()
        parent, child = chain_blocks(config, [1, 2])
        cache.add(child.header)
        digest = parent.digest(config.hash_bits)
        assert cache.find_child(digest, skip_ids={child.block_id}) is None

    def test_size_bits(self, config):
        cache = HeaderCache()
        blocks = chain_blocks(config, [1, 2, 3])
        for block in blocks:
            cache.add(block.header)
        assert cache.size_bits(config) == sum(
            b.header.size_bits(config) for b in blocks
        )


class ListIndexCache:
    """The reference ``H_i``: a list of children per digest, as the index
    was kept before it held the child itself or a tuple."""

    def __init__(self):
        self.headers, self.children = {}, {}

    def add(self, header):
        if header.block_id in self.headers:
            return False
        self.headers[header.block_id] = header
        for parent_digest in header.digests.values():
            self.children.setdefault(parent_digest.value, []).append(header)
        return True

    def find_child(self, digest, skip_ids=None, exclude_origins=None):
        eligible = [
            child for child in self.children.get(digest.value, [])
            if not (skip_ids and child.block_id in skip_ids)
            and not (exclude_origins and child.origin in exclude_origins)
        ]
        return min(eligible, key=lambda child: (child.time, child.block_id), default=None)


PARENT_DIGESTS = [hash_bytes(bytes([i])) for i in range(5)]
ORIGINS = st.integers(0, 3)
BLOCK_IDS = st.builds(BlockId, ORIGINS, st.integers(0, 3))
ADDS = st.builds(
    BlockHeader,
    origin=ORIGINS, index=st.integers(0, 3), version=st.just(1),
    time=st.sampled_from([0.0, 1.0, 1.5]), root=st.just(PARENT_DIGESTS[0]),
    digests=st.dictionaries(st.integers(0, 6), st.sampled_from(PARENT_DIGESTS), max_size=4),
    nonce=st.just(0), signature=st.just(b""),
)
FINDS = st.tuples(
    st.sampled_from(PARENT_DIGESTS),
    st.one_of(st.none(), st.frozensets(BLOCK_IDS, max_size=6)),
    st.one_of(st.none(), st.frozensets(ORIGINS)),
)


class TestIndexEqualsReference:
    @given(st.lists(st.one_of(ADDS, FINDS), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_same_header_object_from_both(self, operations):
        cache, reference = HeaderCache(), ListIndexCache()
        for operation in operations:
            if isinstance(operation, BlockHeader):
                assert cache.add(operation) is reference.add(operation)
            else:
                assert cache.find_child(*operation) is reference.find_child(*operation)
        assert list(cache) == list(reference.headers.values())


class TestTps:
    def test_extends_through_cached_chain(self, config):
        blocks = chain_blocks(config, [1, 2, 3, 4])
        cache = HeaderCache()
        for block in blocks[1:]:
            cache.add(block.header)
        consensus = {1}
        path = [blocks[0].header]
        result = trust_path_selection(cache, consensus, path, blocks[0].header)
        assert result.steps == 3
        assert consensus == {1, 2, 3, 4}
        assert [h.block_id for h in path] == [b.block_id for b in blocks]
        assert result.verifying_header is blocks[-1].header

    def test_no_progress_on_empty_cache(self, config):
        blocks = chain_blocks(config, [1, 2])
        cache = HeaderCache()
        consensus = {1}
        path = [blocks[0].header]
        result = trust_path_selection(cache, consensus, path, blocks[0].header)
        assert result.steps == 0
        assert result.verifying_header is blocks[0].header

    def test_skip_ids_stop_extension(self, config):
        blocks = chain_blocks(config, [1, 2, 3])
        cache = HeaderCache()
        for block in blocks[1:]:
            cache.add(block.header)
        consensus = {1}
        path = [blocks[0].header]
        result = trust_path_selection(
            cache, consensus, path, blocks[0].header,
            skip_ids={blocks[1].block_id},
        )
        assert result.steps == 0

    def test_path_members_never_revisited(self, config):
        blocks = chain_blocks(config, [1, 2])
        cache = HeaderCache()
        cache.add(blocks[1].header)
        consensus = {1, 2}
        path = [blocks[0].header, blocks[1].header]
        result = trust_path_selection(cache, consensus, path, blocks[0].header)
        assert result.steps == 0
