"""Header/body identity caching (docs/performance.md).

Headers are frozen, so one canonical byte string (the Eq. 6 payload,
of which Δ's encoding is a slice) and their digests are memoised on the
instance.  These tests pin the cache's contract: cached values equal
fresh recomputations, entries are keyed by digest width, the
frozen-dataclass guarantee holds, and wire round-trips are unaffected
by warm caches.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec, wire
from repro.core.block import BlockHeader, BlockId, build_block, make_body
from repro.core.config import ProtocolConfig
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair
from repro.crypto.puzzle import NoncePuzzle
from repro.crypto.signature import sign

CACHE_ATTRS = (
    "_hdr_signing_payload",
    "_hdr_digest_by_bits",
    "_hdr_ref_values",
    "_hdr_block_id",
)


@pytest.fixture
def config():
    return ProtocolConfig(body_bits=8_000, gamma=2)


@pytest.fixture
def keypair():
    return KeyPair.generate(3)


@pytest.fixture
def header(config, keypair):
    digests = {j: hash_bytes(f"parent-{j}".encode()) for j in range(4)}
    block = build_block(
        origin=3, index=5, time=2.5, body=make_body(3, 5, config),
        digests=digests, keypair=keypair, config=config,
    )
    return block.header


def reference_encode_digests(digests):
    """Δ's canonical bytes from the scalar codec, one entry at a time:
    count, then node id and length-prefixed digest in ascending order."""
    parts = [codec.encode_u32(len(digests))]
    for node in sorted(digests):
        parts.append(codec.encode_u32(node))
        parts.append(codec.encode_bytes(digests[node].value))
    return b"".join(parts)


def clear_caches(header: BlockHeader) -> None:
    for attr in CACHE_ATTRS:
        header.__dict__.pop(attr, None)


class TestDigestCache:
    def test_warm_digest_equals_cold_recompute(self, header):
        warm = header.digest()
        clear_caches(header)
        cold = header.digest()
        assert warm == cold
        assert warm.value == hash_bytes(header.encode()).value

    def test_second_call_returns_cached_object(self, header):
        assert header.digest() is header.digest()

    def test_width_keyed_entries(self, header):
        wide = header.digest()
        narrow = header.digest(bits=128)
        assert wide.bits == 256 and narrow.bits == 128
        # Truncated SHA-256: the narrow digest is the wide one's prefix.
        assert narrow.value == wide.value[:16]
        # Both widths stay cached independently.
        assert header.digest(bits=128) is narrow
        assert header.digest() is wide

    def test_encode_cached_and_stable(self, header):
        first = header.encode()
        clear_caches(header)
        assert header.encode() == first

    def test_signing_payload_prewarmed_by_build(self, header):
        warm = header.signing_payload()
        clear_caches(header)
        assert header.signing_payload() == warm

    def test_replace_starts_cold(self, header):
        header.digest()
        tampered = dataclasses.replace(header, nonce=header.nonce + 1)
        assert "_hdr_digest_by_bits" not in tampered.__dict__
        assert tampered.digest() != header.digest()


class TestIdentitySlots:
    """``block_id`` and the encoded Δ: once per header, cold on copies."""

    def test_block_id_is_one_shared_object(self, header):
        assert header.block_id == BlockId(3, 5)
        assert header.block_id is header.block_id

    def test_encoded_digests_prewarmed_and_shared(self, header):
        warm = header.puzzle_fields()[1]  # a slice of build_block's payload
        assert header.puzzle_fields() == [header.root.value, warm]
        assert warm == reference_encode_digests(header.digests)
        clear_caches(header)
        assert header.puzzle_fields()[1] == warm
        assert warm in header.signing_payload()

    def test_a_used_header_holds_one_byte_string(self, header, keypair):
        header.digest()
        assert header.verify_signature(keypair.public)
        assert header.verify_nonce(NoncePuzzle(0, 256))
        header.encode()
        wire.encode_header(header)
        kept = [
            value for value in vars(header).values()
            if isinstance(value, bytes) and len(value) > len(header.signature)
        ]
        assert kept == [header.signing_payload()]

    @given(
        st.sampled_from([64, 128, 256]),
        st.dictionaries(st.integers(0, 2**32 - 1), st.binary(max_size=8), max_size=25),
        st.sampled_from([0, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_delta_slice_is_the_reference_encoding(self, hash_bits, parents, mined_bits):
        """Δ is cut out of the payload, never encoded beside it: a cut
        that is off by a byte must show, and at difficulty 0 — where
        every hash meets Eq. (5) — it shows only here."""
        config = ProtocolConfig(
            body_bits=8_000, gamma=2, hash_bits=hash_bits, puzzle_difficulty_bits=mined_bits
        )
        digests = {node: hash_bytes(seed, hash_bits) for node, seed in parents.items()}
        built = build_block(
            origin=3, index=5, time=2.5, body=make_body(3, 5, config),
            digests=digests, keypair=KeyPair.generate(3), config=config,
        ).header
        headers = [
            built,
            dataclasses.replace(built),
            wire.decode_header(wire.encode_header(built), hash_bits),
            dataclasses.replace(built, nonce=built.nonce + 1),
        ]
        delta = reference_encode_digests(digests)
        for header in headers:
            assert header.puzzle_fields() == [built.root.value, delta]
            for difficulty in (0, 4, 8):
                puzzle = NoncePuzzle(difficulty, hash_bits)
                expected = puzzle.check([built.root.value, delta], header.nonce)
                assert header.verify_nonce(puzzle) is expected
                # The mined nonce meets every difficulty up to the one mined at.
                assert expected or difficulty > mined_bits or header is headers[-1]

    @pytest.mark.parametrize("field, changes_payload", [
        ("root", True), ("digests", True), ("origin", False), ("index", False),
    ])
    def test_replace_recomputes_every_identity(
        self, header, keypair, field, changes_payload
    ):
        for warm_up in (header.digest, header.encode, header.signing_payload,
                        header.puzzle_fields, lambda: header.block_id):
            warm_up()
        changed = {
            "root": hash_bytes(b"another body"),
            "digests": {**header.digests, 9: hash_bytes(b"grafted parent")},
            "origin": header.origin + 1,
            "index": header.index + 1,
        }[field]
        copy = dataclasses.replace(header, **{field: changed})
        assert not set(CACHE_ATTRS) & set(copy.__dict__)
        assert copy.digest() != header.digest()
        if changes_payload:
            assert copy.block_id == header.block_id
            assert copy.puzzle_fields() != header.puzzle_fields()
            assert copy.signing_payload() != header.signing_payload()
            # The nonce was mined and the signature made over the old bytes.
            assert header.verify_signature(keypair.public)
            assert not copy.verify_signature(keypair.public)
        else:
            assert copy.block_id != header.block_id
            assert copy.block_id == BlockId(copy.origin, copy.index)


class TestMutationSafety:
    def test_fields_are_frozen(self, header):
        with pytest.raises(dataclasses.FrozenInstanceError):
            header.nonce = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            header.digests = {}

    def test_caches_do_not_affect_equality_or_repr(self, header):
        twin = dataclasses.replace(header)
        header.digest()
        header.references(hash_bytes(b"x"))
        assert header == twin
        assert repr(header) == repr(twin)


class TestReferences:
    def test_matches_linear_scan(self, header):
        present = list(header.digests.values())
        absent = [hash_bytes(f"absent-{i}".encode()) for i in range(3)]
        for digest in present + absent:
            expected = any(d == digest for d in header.digests.values())
            assert header.references(digest) is expected

    def test_consistent_after_warmup(self, header):
        target = next(iter(header.digests.values()))
        assert header.references(target)
        assert header.references(target)  # cached frozenset path
        assert not header.references(hash_bytes(b"never-referenced"))


class TestWireRoundTripWithWarmCaches:
    def test_decode_encode_round_trip(self, header):
        # Warm every cache first: round-tripping must not be affected.
        header.digest()
        header.digest(bits=128)
        header.encode()
        header.references(hash_bytes(b"warmup"))
        data = wire.encode_header(header)
        decoded = wire.decode_header(data)
        assert decoded == header
        assert decoded.digest() == header.digest()
        assert wire.encode_header(decoded) == data

    def test_body_root_memoised(self, config, keypair):
        block = build_block(
            origin=1, index=0, time=0.0, body=make_body(1, 0, config),
            digests={}, keypair=keypair, config=config,
        )
        root = block.body.root(config.hash_bits)
        assert block.body.root(config.hash_bits) is root
        assert block.verify_body_root()
        # A fresh body object recomputes to the same value.
        fresh = make_body(1, 0, config)
        assert fresh.root(config.hash_bits) == root


def two_step_build(origin, index, time, body, digests, keypair, config):
    """The reference construction: an unsigned header supplies the Eq. (6)
    payload, ``dataclasses.replace`` adds the signature over it."""
    puzzle = NoncePuzzle(config.puzzle_difficulty_bits, config.hash_bits)
    root = body.root(config.hash_bits)
    digest_map = dict(digests)
    encoded_digests = reference_encode_digests(digest_map)
    solution = puzzle.solve([root.value, encoded_digests])
    unsigned = BlockHeader(
        origin=origin, index=index, version=config.protocol_version, time=time,
        root=root, digests=digest_map, nonce=solution.nonce, signature=b"",
    )
    return dataclasses.replace(
        unsigned, signature=sign(unsigned.signing_payload(), keypair)
    )


class TestOneConstructionEqualsTwo:
    """``build_block`` makes its header once; what it returns — fields,
    digest and the pre-warmed payload — is what signing an unsigned
    header and copying it with the signature gives."""

    @pytest.mark.parametrize("difficulty, hash_bits, parents", [
        (0, 256, 4), (0, 256, 0), (5, 256, 3), (0, 128, 6), (4, 64, 2),
    ])
    def test_equal_header_digest_and_caches(self, keypair, difficulty, hash_bits, parents):
        config = ProtocolConfig(
            body_bits=8_000, gamma=2, hash_bits=hash_bits,
            puzzle_difficulty_bits=difficulty,
        )
        digests = {
            j: hash_bytes(f"parent-{j}".encode(), hash_bits) for j in range(parents, 0, -1)
        }
        arguments = (3, 5, 2.5, make_body(3, 5, config), digests, keypair, config)
        reference = two_step_build(*arguments)
        built = build_block(*arguments).header

        assert built == reference
        assert built.digest(hash_bits) == reference.digest(hash_bits)
        assert built.encode() == reference.encode()
        assert built.verify_signature(keypair.public)
        assert built.digests is not digests  # a private copy of Δ

        warm_payload = built.__dict__["_hdr_signing_payload"]
        cold = dataclasses.replace(built)
        assert not set(CACHE_ATTRS) & set(cold.__dict__)
        assert cold.signing_payload() == warm_payload == reference.signing_payload()
        assert cold.puzzle_fields() == built.puzzle_fields() == reference.puzzle_fields()
        assert cold.puzzle_fields() == [built.root.value, reference_encode_digests(digests)]
        assert cold.digest(hash_bits) == built.digest(hash_bits)
