"""Unit tests for the header cache (H_i) and TPS (Algorithm 2)."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import BlockHeader, BlockId, DataBlock, build_block, make_body
from repro.core.config import ProtocolConfig
from repro.core.pop.cache import HeaderCache
from repro.core.pop.tps import trust_path_selection
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.core.storage import BlockStore
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair
from repro.net.topology import grid_topology


#: The cache owner in these tests: it authors none of the cached headers
#: unless a test stores its own blocks.
OWNER = 9


@pytest.fixture
def config():
    return ProtocolConfig(body_bits=800, gamma=2)


def bare_cache():
    """An ``H_i`` whose owner has stored nothing yet."""
    return HeaderCache(BlockStore(owner=OWNER))


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
        cache = bare_cache()
        (block,) = chain_blocks(config, [1])
        assert cache.add(block.header)
        assert cache.get(block.block_id) is block.header
        assert block.block_id in cache
        assert len(cache) == 1

    def test_duplicate_add_returns_false(self, config):
        cache = bare_cache()
        (block,) = chain_blocks(config, [1])
        cache.add(block.header)
        assert not cache.add(block.header)
        assert len(cache) == 1

    def test_find_child(self, config):
        cache = bare_cache()
        parent, child = chain_blocks(config, [1, 2])
        cache.add(child.header)
        found = cache.find_child(parent.digest(config.hash_bits))
        assert found is child.header

    def test_find_child_prefers_oldest(self, config):
        """Mirrors the responder's Eq. (11) choice."""
        cache = bare_cache()
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
        cache = bare_cache()
        parent, child = chain_blocks(config, [1, 2])
        cache.add(child.header)
        digest = parent.digest(config.hash_bits)
        assert cache.find_child(digest, skip_ids={child.block_id}) is None

    def test_size_bits(self, config):
        cache = bare_cache()
        blocks = chain_blocks(config, [1, 2, 3])
        for block in blocks:
            cache.add(block.header)
        assert cache.size_bits(config) == sum(
            b.header.size_bits(config) for b in blocks
        )


class ListIndexCache:
    """The reference ``H_i``: one dict of every header, the owner's own
    included, and a list of children per digest — as the cache was kept
    before it held the child itself or a tuple, and before it read own
    headers from ``S_i``."""

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

    def size_bits(self, config):
        return sum(header.size_bits(config) for header in self.headers.values())


PARENT_DIGESTS = [hash_bytes(bytes([i])) for i in range(5)]
ORIGINS = st.integers(0, 3)
#: Lookups may name or exclude the owner too.
ANY_ORIGIN = st.sampled_from([0, 1, 2, 3, OWNER])
BLOCK_IDS = st.builds(BlockId, ANY_ORIGIN, st.integers(0, 3))
ADDS = st.builds(
    BlockHeader,
    origin=ORIGINS, index=st.integers(0, 3), version=st.just(1),
    time=st.sampled_from([0.0, 1.0, 1.5]), root=st.just(PARENT_DIGESTS[0]),
    digests=st.dictionaries(st.integers(0, 6), st.sampled_from(PARENT_DIGESTS), max_size=4),
    nonce=st.just(0), signature=st.just(b""),
)
#: The owner generates a block: its header becomes the store's next one.
BODY = make_body(OWNER, 0, ProtocolConfig(body_bits=800, gamma=2))
STORES = ADDS.map(lambda header: DataBlock(header=header, body=BODY))
FINDS = st.tuples(
    st.sampled_from(PARENT_DIGESTS),
    st.one_of(st.none(), st.frozensets(BLOCK_IDS, max_size=6)),
    st.one_of(st.none(), st.frozensets(ANY_ORIGIN)),
)


class TestIndexEqualsReference:
    @given(st.lists(st.one_of(ADDS, STORES, FINDS), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_same_header_object_from_both(self, operations):
        store = BlockStore(owner=OWNER)
        cache, reference = HeaderCache(store), ListIndexCache()
        for operation in operations:
            if isinstance(operation, DataBlock):
                header = replace(operation.header, origin=OWNER, index=len(store))
                store.add(DataBlock(header=header, body=operation.body))
                assert reference.add(header)  # generation added it to H_i
                assert not cache.add(header)
            elif isinstance(operation, BlockHeader):
                assert cache.add(operation) is reference.add(operation)
            else:
                assert cache.find_child(*operation) is reference.find_child(*operation)
        # Own headers first, in index order, then fetched ones as they came.
        own_first = sorted(reference.headers.values(), key=lambda h: h.origin != OWNER)
        assert list(cache) == own_first
        assert len(cache) == len(reference.headers)
        for block_id, header in reference.headers.items():
            assert block_id in cache and cache.get(block_id) is header
        for config in (ProtocolConfig(hash_bits=128), ProtocolConfig()):
            assert cache.size_bits(config) == reference.size_bits(config)

    def test_oldest_own_child_skipped_falls_back_to_the_next(self, config):
        """A rolled-back own child hides only itself: the next own child of
        the digest (here older than every fetched one) is the answer."""
        store = BlockStore(owner=OWNER)
        cache = HeaderCache(store)
        parent = hash_bytes(b"parent")
        for index, time in enumerate([1.0, 3.0, 2.0]):
            header = BlockHeader(
                origin=OWNER, index=index, version=1, time=time, root=parent,
                digests={0: parent}, nonce=0, signature=b"",
            )
            store.add(DataBlock(header=header, body=BODY))
        fetched = BlockHeader(
            origin=1, index=0, version=1, time=2.5, root=parent,
            digests={0: parent}, nonce=0, signature=b"",
        )
        cache.add(fetched)
        own = [block.header for block in store]
        assert cache.find_child(parent) is own[0]
        assert cache.find_child(parent, skip_ids={own[0].block_id}) is own[2]
        assert cache.find_child(parent, skip_ids={own[0].block_id, own[2].block_id}) is fetched
        assert cache.find_child(parent, exclude_origins={OWNER}) is fetched

    def test_equal_times_decide_by_id(self):
        """On a time tie the smaller (origin, index) wins, whether the
        rivals are an own child and a fetched one or two fetched ones,
        and whatever order they arrived in."""
        parent = hash_bytes(b"parent")

        def child(origin, index, time=4.0):
            return BlockHeader(
                origin=origin, index=index, version=1, time=time, root=parent,
                digests={0: parent}, nonce=0, signature=b"",
            )

        store = BlockStore(owner=OWNER)
        cache = HeaderCache(store)
        store.add(DataBlock(header=child(OWNER, 0, time=1.0), body=BODY))
        store.add(DataBlock(header=child(OWNER, 1), body=BODY))
        cache.add(later := child(12, 0))
        own = store.get(BlockId(OWNER, 1)).header
        skip = {BlockId(OWNER, 0)}
        # Own (9, 1) beats fetched (12, 0) at time 4.0 ...
        assert cache.find_child(parent, skip_ids=skip) is own
        # ... and fetched (4, 3) beats both, though added last.
        cache.add(earlier := child(4, 3))
        assert cache.find_child(parent, skip_ids=skip) is earlier
        assert cache.find_child(parent, skip_ids=skip | {earlier.block_id}) is own
        assert cache.find_child(parent, skip_ids=skip, exclude_origins={OWNER, 4}) is later
        # A strictly older child wins on time alone, whatever its id.
        cache.add(oldest := child(50, 0, time=3.5))
        assert cache.find_child(parent, skip_ids=skip) is oldest


@pytest.fixture(scope="module")
def validated_run():
    """A 4 × 4 lattice after 24 slots with PoP on.  Nodes generate every
    one or two slots, so a fast node's blocks repeat a slow neighbour's
    digest: some digests have several own children at one node."""
    config = ProtocolConfig(body_bits=8_000, gamma=3)
    deployment = TwoLayerDagNetwork(config=config, topology=grid_topology(4, 4), seed=5)
    workload = SlotSimulation(
        deployment, generation_period="random-1-2", validate=True,
        validation_min_age_slots=8,
    )
    workload.run(24)
    workload.run_until_quiet()
    return deployment, workload


class TestViewEqualsAddingOwnHeaders:
    """Each node's ``H_i`` answers as a cache that ``add``ed every own
    header when it was generated and every successful path after it."""

    def test_every_answer_equals_the_reference(self, validated_run):
        deployment, workload = validated_run
        config, rng = deployment.config, random.Random(3)
        stores = {n: deployment.node(n).store for n in deployment.node_ids}
        every = [block.header for store in stores.values() for block in store]
        digests = [h.digest(config.hash_bits) for h in every] + [hash_bytes(b"absent")]
        ids = [h.block_id for h in every]
        paths = {n: [] for n in deployment.node_ids}
        for record in workload.validations:
            if record.outcome is not None and record.outcome.success:
                paths[record.validator].extend(record.outcome.path)
        assert sum(map(len, paths.values())) > 100
        fallbacks = 0
        for node_id, store in stores.items():
            cache, reference = deployment.node(node_id).cache, ListIndexCache()
            for header in [block.header for block in store] + paths[node_id]:
                reference.add(header)
            assert len(cache) == len(reference.headers)
            assert cache.size_bits(config) == reference.size_bits(config)
            for block_id in ids:
                assert (block_id in cache) is (block_id in reference.headers)
                assert cache.get(block_id) is reference.headers.get(block_id)
            origins = sorted(deployment.node_ids)
            for digest in digests:
                skips = [None, frozenset(rng.sample(ids, 3))]
                oldest = store.oldest_child_of(digest)
                if oldest is not None:
                    # The rare dead end: the own Eq. (11) child is skipped.
                    skips.append(frozenset({oldest.block_id}))
                    fallbacks += store.oldest_child_of(digest, skips[-1]) is not None
                excludes = [None, {node_id}, set(rng.sample(origins, 5))]
                for skip in skips:
                    for exclude in excludes:
                        want = reference.find_child(digest, skip, exclude)
                        assert cache.find_child(digest, skip, exclude) is want
        assert fallbacks > 0

    def test_no_own_header_in_the_fetched_index(self, validated_run):
        deployment, _ = validated_run
        indexed = 0
        for node_id in deployment.node_ids:
            for children in deployment.node(node_id).cache._children_of_digest.values():
                children = children if type(children) is tuple else (children,)
                assert all(child.origin != node_id for child in children)
                indexed += len(children)
        assert indexed > 0


class TestTps:
    def test_extends_through_cached_chain(self, config):
        blocks = chain_blocks(config, [1, 2, 3, 4])
        cache = bare_cache()
        for block in blocks[1:]:
            cache.add(block.header)
        consensus = {1}
        path = [blocks[0].header]
        tip, steps = trust_path_selection(cache, consensus, path, blocks[0].header)
        assert steps == 3
        assert consensus == {1, 2, 3, 4}
        assert [h.block_id for h in path] == [b.block_id for b in blocks]
        assert tip is blocks[-1].header

    def test_no_progress_on_empty_cache(self, config):
        blocks = chain_blocks(config, [1, 2])
        cache = bare_cache()
        consensus = {1}
        path = [blocks[0].header]
        tip, steps = trust_path_selection(cache, consensus, path, blocks[0].header)
        assert steps == 0
        assert tip is blocks[0].header

    def test_skip_ids_stop_extension(self, config):
        blocks = chain_blocks(config, [1, 2, 3])
        cache = bare_cache()
        for block in blocks[1:]:
            cache.add(block.header)
        consensus = {1}
        path = [blocks[0].header]
        _, steps = trust_path_selection(
            cache, consensus, path, blocks[0].header,
            skip_ids={blocks[1].block_id},
        )
        assert steps == 0

    def test_path_members_never_revisited(self, config):
        blocks = chain_blocks(config, [1, 2])
        cache = bare_cache()
        cache.add(blocks[1].header)
        consensus = {1, 2}
        path = [blocks[0].header, blocks[1].header]
        _, steps = trust_path_selection(cache, consensus, path, blocks[0].header)
        assert steps == 0
