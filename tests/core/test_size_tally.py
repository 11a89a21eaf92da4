"""``BlockStore`` / ``HeaderCache`` sizes from a running Σ|Δ| equal a per-item sum.

The reference is the per-item formula both ``size_bits`` used to
evaluate on every storage sample: Eq. (2) summed over the stored
blocks, the header size summed over the cached headers.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.sybil import sybil_identities
from repro.core.block import DataBlock, build_block, make_body
from repro.core.config import ProtocolConfig
from repro.core.pop.cache import HeaderCache
from repro.core.storage import BlockStore
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair

BUILD_CONFIG = ProtocolConfig(body_bits=800, gamma=2)
#: hash_bits 128 / 256 crossed with two body sizes.
CONFIGS = [
    ProtocolConfig(hash_bits=bits, body_bits=body, gamma=2)
    for bits in (128, 256)
    for body in (800, 4_000_000)
]
SYBIL = sybil_identities(attacker=3, count=1)[0]


def delta(size, salt):
    return {j: hash_bytes(b"%s:%d" % (salt, j)) for j in range(size)}


def block(origin, index, delta_size):
    return build_block(
        origin=origin, index=index, time=float(index),
        body=make_body(origin, index, BUILD_CONFIG),
        digests=delta(delta_size, b"%d:%d" % (origin, index)),
        keypair=KeyPair.generate(origin), config=BUILD_CONFIG,
    )


def transform(data_block, kind, delta_size):
    """An honest block, or one rewritten the way an attacker rewrites it."""
    header = data_block.header
    if kind == "tampered-root":
        header = replace(header, root=hash_bytes(b"tampered:" + header.root.value))
    elif kind == "rewritten-delta":
        header = replace(header, digests=delta(delta_size, b"forged"))
    elif kind == "sybil":
        header = SYBIL.forge_header(header)
    return DataBlock(header=header, body=data_block.body)


KINDS = st.sampled_from(["honest", "tampered-root", "rewritten-delta", "sybil"])
STEPS = st.lists(
    st.tuples(KINDS, st.integers(0, 12), st.integers(0, 12), st.booleans()),
    max_size=12,
)


def assert_sizes_equal_reference(store, cache):
    for config in CONFIGS:
        assert store.size_bits(config) == sum(b.size_bits(config) for b in store)
        assert cache.size_bits(config) == sum(h.size_bits(config) for h in cache)


class TestSizeTallyEqualsSum:
    @settings(max_examples=60, deadline=None)
    @given(steps=STEPS)
    def test_block_store(self, steps):
        store = BlockStore(owner=1)
        for kind, delta_size, forged_size, again in steps:
            own = transform(block(1, len(store), delta_size), kind, forged_size)
            if kind == "sybil":
                own = DataBlock(header=replace(own.header, origin=1), body=own.body)
            store.add(own)
            if again:  # a re-added block is refused and must add nothing
                with pytest.raises(ValueError):
                    store.add(own)
            assert_sizes_equal_reference(store, HeaderCache())

    @settings(max_examples=60, deadline=None)
    @given(steps=STEPS)
    def test_header_cache(self, steps):
        cache = HeaderCache()
        for index, (kind, delta_size, forged_size, again) in enumerate(steps):
            honest = block(1 + index % 3, index, delta_size)
            header = transform(honest, kind, forged_size).header
            assert cache.add(header)
            if again:
                # Same id, other Δ: the duplicate is refused and adds nothing.
                assert not cache.add(header)
                assert not cache.add(replace(header, digests=delta(forged_size + 1, b"dup")))
            assert_sizes_equal_reference(BlockStore(owner=1), cache)

    def test_empty(self):
        assert_sizes_equal_reference(BlockStore(owner=1), HeaderCache())
