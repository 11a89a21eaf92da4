"""Header/body identity caching (docs/performance.md).

Headers are frozen, so their results — block id, digest, last
acceptance — are memoised on the instance, and the bytes those were
computed from are not.  These tests pin the cache's contract: cached
values equal fresh recomputations, one digest is kept at the header's
own width, no byte string but the signature stays on a used header, the
frozen-dataclass guarantee holds, and wire round-trips are unaffected
by warm caches.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec, wire
from repro.core.block import BlockHeader, BlockId, build_block, make_body
from repro.core.config import ProtocolConfig
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair
from repro.crypto.puzzle import NoncePuzzle
from repro.crypto.signature import sign, verify

CACHE_ATTRS = (
    "_hdr_digest",
    "block_id",
    "_hdr_accepted",
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

    def test_one_slot_the_last_width_asked(self, header):
        wide = header.digest()
        with Sha256Counter() as counter:
            narrow = header.digest(bits=128)
            again = header.digest(bits=128)
        assert wide.bits == 256 and narrow.bits == 128
        # Truncated SHA-256: the narrow digest is the wide one's prefix.
        assert narrow.value == wide.value[:16]
        # The narrow ask took the slot, so asking it again is free ...
        assert counter.count == 1 and again is narrow is vars(header)["_hdr_digest"]
        # ... and the wide one is hashed afresh.
        with Sha256Counter() as counter:
            back = header.digest()
        assert counter.count == 1 and back == wide and back is not wide

    def test_build_fills_the_slot(self, header):
        kept = vars(header)["_hdr_digest"]  # hashed by build_block
        with Sha256Counter() as counter:
            assert header.digest() is kept
        assert counter.count == 0
        assert kept == hash_bytes(header.encode())

    def test_encode_cached_and_stable(self, header):
        first = header.encode()
        clear_caches(header)
        assert header.encode() == first

    def test_signing_payload_is_encoded_when_asked(self, header, keypair):
        payload = header.signing_payload()
        assert header.signing_payload() == payload
        assert header.signing_payload() is not payload
        assert verify(payload, header.signature, keypair.public)

    def test_replace_starts_cold(self, header):
        header.digest()
        tampered = dataclasses.replace(header, nonce=header.nonce + 1)
        assert "_hdr_digest" not in tampered.__dict__
        assert tampered.digest() != header.digest()


class TestIdentitySlots:
    """``block_id`` and the encoded Δ: once per header, cold on copies."""

    def test_block_id_is_one_shared_object(self, header):
        assert header.block_id == BlockId(3, 5)
        assert header.block_id is header.block_id

    def test_block_id_is_a_plain_attribute_after_the_first_read(self, header):
        assert "block_id" not in vars(header)
        first = header.block_id
        # Instance ``__dict__`` entries shadow the non-data descriptor.
        assert vars(header)["block_id"] is first
        assert all(header.block_id is first for _ in range(3))
        assert type(first) is BlockId

    def test_block_id_starts_cold_on_copies_and_decoded_headers(self, header):
        warm = header.block_id
        copies = [
            dataclasses.replace(header),
            dataclasses.replace(header, index=header.index + 1),
            wire.decode_header(wire.encode_header(header)),
        ]
        for copy in copies:
            assert "block_id" not in vars(copy)
            read = copy.block_id
            assert read is not warm and read is copy.block_id
            assert read == BlockId(copy.origin, copy.index)
        assert copies[0].block_id == warm != copies[1].block_id

    def test_encoded_digests_are_a_payload_slice(self, header):
        payload = header.signing_payload()
        root, delta = header.puzzle_fields(payload)
        assert root == header.root.value
        assert delta == reference_encode_digests(header.digests)
        assert delta in payload

    def test_a_used_header_holds_no_bytes_but_its_signature(self, header, keypair):
        header.digest()
        assert header.authentic(keypair.public, NoncePuzzle(0, 256))
        wire.encode_header(header)
        assert {"_hdr_digest", "_hdr_accepted"} <= set(vars(header))
        kept = {
            name for name, value in vars(header).items()
            if isinstance(value, (bytes, bytearray, memoryview))
        }
        assert kept == {"signature"}

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
            payload = header.signing_payload()
            assert header.puzzle_fields(payload) == [built.root.value, delta]
            for difficulty in (0, 4, 8):
                puzzle = NoncePuzzle(difficulty, hash_bits)
                expected = puzzle.check([built.root.value, delta], header.nonce)
                assert header.verify_nonce(puzzle, payload) is expected
                # The mined nonce meets every difficulty up to the one mined at.
                assert expected or difficulty > mined_bits or header is headers[-1]

    @pytest.mark.parametrize("field, changes_payload", [
        ("root", True), ("digests", True), ("origin", False), ("index", False),
    ])
    def test_replace_recomputes_every_identity(
        self, header, keypair, field, changes_payload
    ):
        for warm_up in (header.digest, header.encode, header.signing_payload,
                        lambda: header.puzzle_fields(header.signing_payload()),
                        lambda: header.block_id,
                        lambda: header.authentic(keypair.public, NoncePuzzle(0))):
            warm_up()
        assert set(CACHE_ATTRS) <= set(header.__dict__)
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
            assert copy.puzzle_fields(copy.signing_payload()) != header.puzzle_fields(
                header.signing_payload()
            )
            assert copy.signing_payload() != header.signing_payload()
            # The nonce was mined and the signature made over the old bytes.
            assert header.verify_signature(keypair.public)
            assert not copy.verify_signature(keypair.public)
        else:
            assert copy.block_id != header.block_id
            assert copy.block_id == BlockId(copy.origin, copy.index)


def _kernel_contract_counter():
    """The kernel contract's ``Sha256Counter``: one way of counting hashes."""
    path = Path(__file__).resolve().parents[1] / "crypto" / "test_kernel_contract.py"
    spec = importlib.util.spec_from_file_location("kernel_contract", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Sha256Counter


Sha256Counter = _kernel_contract_counter()


class TestAuthenticityVerdict:
    """``authentic`` keeps an acceptance per (key, difficulty, width) and
    nothing else: a repeat is free, any other triple or copy is checked."""

    def hashes(self, header, public, puzzle):
        with Sha256Counter() as counter:
            verdict = header.authentic(public, puzzle)
        return verdict, counter.count

    def test_first_check_hashes_twice_and_a_repeat_not_at_all(self, header, keypair):
        puzzle = NoncePuzzle(0)
        assert self.hashes(header, keypair.public, puzzle) == (True, 2)
        assert self.hashes(header, keypair.public, puzzle) == (True, 0)
        # Another puzzle object with the same numbers is the same triple.
        assert self.hashes(header, keypair.public, NoncePuzzle(0, 256)) == (True, 0)

    def test_a_tampered_copy_starts_cold_and_is_rejected(self, header, keypair):
        puzzle = NoncePuzzle(0)
        assert header.authentic(keypair.public, puzzle)
        copy = dataclasses.replace(header, root=hash_bytes(b"another body"))
        assert "_hdr_accepted" not in copy.__dict__
        # The signature fails first, so the puzzle is never hashed; a
        # rejection is not kept, so asking again costs the same.
        assert self.hashes(copy, keypair.public, puzzle) == (False, 1)
        assert self.hashes(copy, keypair.public, puzzle) == (False, 1)
        assert self.hashes(header, keypair.public, puzzle) == (True, 0)

    def test_an_acceptance_does_not_carry_to_another_key(self, header, keypair):
        puzzle = NoncePuzzle(0)
        other = KeyPair.generate(4)
        sign(b"registers the other key with the oracle", other)
        assert header.authentic(keypair.public, puzzle)
        assert self.hashes(header, other.public, puzzle) == (False, 1)
        assert self.hashes(header, keypair.public, puzzle) == (True, 0)

    def test_an_acceptance_does_not_carry_to_a_harder_puzzle(self, header, keypair):
        easy, hard = NoncePuzzle(0), NoncePuzzle(8)
        # Nonce 0 was mined at difficulty 0.
        assert not header.verify_nonce(hard, header.signing_payload())
        assert header.authentic(keypair.public, easy)
        assert self.hashes(header, keypair.public, hard) == (False, 2)
        assert self.hashes(header, keypair.public, easy) == (True, 0)

    def test_the_oracle_never_rebinds_a_public_key(self, keypair):
        impostor = KeyPair(owner=keypair.owner, private=b"\x01" * 32, public=keypair.public)
        sign(b"binds the genuine pair", keypair)
        with pytest.raises(ValueError, match="already bound"):
            sign(b"would rebind it", impostor)
        assert sign(b"the genuine pair again", keypair)


class TestMutationSafety:
    def test_fields_are_frozen(self, header):
        with pytest.raises(dataclasses.FrozenInstanceError):
            header.nonce = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            header.digests = {}

    def test_caches_do_not_affect_equality_or_repr(self, header):
        twin = dataclasses.replace(header)
        header.digest()
        assert header == twin
        assert repr(header) == repr(twin)


class TestWireRoundTripWithWarmCaches:
    def test_decode_encode_round_trip(self, header, keypair):
        # Warm every cache first: round-tripping must not be affected.
        header.digest()
        header.digest(bits=128)
        header.encode()
        header.authentic(keypair.public, NoncePuzzle(0))
        assert header.block_id == BlockId(3, 5)
        assert set(CACHE_ATTRS) <= set(header.__dict__)
        data = wire.encode_header(header)
        decoded = wire.decode_header(data)
        assert not set(CACHE_ATTRS) & set(decoded.__dict__)
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
        # One slot: the last width asked.
        narrow = block.body.root(128)
        assert block.body.root(128) is narrow
        assert block.body.root(config.hash_bits) == root
        assert block.body.root(config.hash_bits) is not root


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
    encodings and digest — is what signing an unsigned header and
    copying it with the signature gives."""

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

        warm_digest = built.__dict__["_hdr_digest"]
        cold = dataclasses.replace(built)
        assert not set(CACHE_ATTRS) & set(cold.__dict__)
        assert cold.digest(hash_bits) == warm_digest == reference.digest(hash_bits)
        assert cold.signing_payload() == built.signing_payload() == reference.signing_payload()
        delta = reference_encode_digests(digests)
        assert built.puzzle_fields(built.signing_payload()) == [built.root.value, delta]
