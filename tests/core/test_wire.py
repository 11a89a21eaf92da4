"""Unit tests for the wire format."""

import dataclasses

import pytest

from repro.core.block import build_block, make_body
from repro.core.config import ProtocolConfig
from repro.core.wire import (
    WireError,
    decode_block,
    decode_body,
    decode_header,
    encode_block,
    encode_body,
    encode_header,
)
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair


@pytest.fixture
def config():
    return ProtocolConfig(body_bits=8_000, gamma=2)


@pytest.fixture
def block(config):
    digests = {j: hash_bytes(f"d{j}".encode()) for j in (2, 5, 9)}
    return build_block(
        origin=1, index=7, time=42.125, body=make_body(1, 7, config),
        digests=digests, keypair=KeyPair.generate(1), config=config,
    )


class TestRoundTrips:
    def test_header_roundtrip(self, block):
        encoded = encode_header(block.header)
        decoded = decode_header(encoded)
        assert decoded == block.header

    def test_header_digest_preserved(self, block):
        """The decoded header hashes identically — the property PoP
        correctness rests on."""
        decoded = decode_header(encode_header(block.header))
        assert decoded.digest() == block.header.digest()

    def test_header_signature_still_verifies(self, block):
        decoded = decode_header(encode_header(block.header))
        assert decoded.verify_signature(KeyPair.generate(1).public)

    def test_body_roundtrip(self, block):
        assert decode_body(encode_body(block.body)) == block.body

    def test_block_roundtrip(self, block):
        decoded = decode_block(encode_block(block))
        assert decoded == block
        assert decoded.verify_body_root()

    def test_empty_digest_map(self, config):
        genesis = build_block(
            origin=3, index=0, time=0.0, body=make_body(3, 0, config),
            digests={}, keypair=KeyPair.generate(3), config=config,
        )
        assert decode_header(encode_header(genesis.header)) == genesis.header

    def test_encoding_deterministic(self, block):
        assert encode_block(block) == encode_block(block)


class TestStrictParsing:
    def test_truncated_header_rejected(self, block):
        encoded = encode_header(block.header)
        with pytest.raises(WireError):
            decode_header(encoded[:-3])

    def test_trailing_bytes_rejected(self, block):
        encoded = encode_header(block.header)
        with pytest.raises(WireError):
            decode_header(encoded + b"\x00")

    def test_bad_magic_rejected(self, block):
        encoded = encode_header(block.header)
        with pytest.raises(WireError):
            decode_header(b"XX" + encoded[2:])

    def test_bad_version_rejected(self, block):
        encoded = bytearray(encode_header(block.header))
        encoded[2] = 99
        with pytest.raises(WireError):
            decode_header(bytes(encoded))

    def test_empty_input_rejected(self):
        with pytest.raises(WireError):
            decode_header(b"")

    def test_body_magic_checked(self, block):
        with pytest.raises(WireError):
            decode_body(encode_header(block.header))

    def test_block_inner_truncation_rejected(self, block):
        encoded = bytearray(encode_block(block))
        # Corrupt the inner header length to exceed available bytes.
        encoded[3:7] = (2 ** 20).to_bytes(4, "big")
        with pytest.raises(WireError):
            decode_block(bytes(encoded))

    @pytest.mark.parametrize("field, value", [("origin", 2 ** 32), ("nonce", 2 ** 64)])
    def test_out_of_range_integer_not_encoded(self, block, field, value):
        header = dataclasses.replace(block.header, **{field: value})
        with pytest.raises(WireError, match="out of range"):
            encode_header(header)

    def test_implausible_digest_count_rejected(self, block):
        # Header layout: the digest count is the u32 at offset 59.
        encoded = bytearray(encode_header(block.header))
        encoded[59:63] = (10_001).to_bytes(4, "big")
        with pytest.raises(WireError, match="implausible digest count 10001"):
            decode_header(bytes(encoded))

    def test_duplicate_digest_entry_rejected(self, block):
        # Entries start at offset 63: node(4) digest_len(4) digest(32).
        encoded = bytearray(encode_header(block.header))
        assert encoded[63:67] == (2).to_bytes(4, "big")
        encoded[103:107] = (2).to_bytes(4, "big")
        with pytest.raises(WireError, match="duplicate digest entry for node 2"):
            decode_header(bytes(encoded))

    def test_fuzzed_prefixes_never_crash_uncontrolled(self, block):
        encoded = encode_block(block)
        for cut in range(0, len(encoded), 7):
            try:
                decode_block(encoded[:cut])
            except WireError:
                pass  # the only acceptable failure mode


class TestDigestWidth:
    """A wrong-width digest is a located ``WireError``, never a bare
    ``ValueError`` from the ``Digest`` constructor."""

    # Header layout: magic(2) version(1) origin(4) index(4) time(8)
    # proto(4) | root blob at 23 | count(4) at 59 | first entry: node(4)
    # at 63, digest blob at 67.
    ROOT_AT = 23
    FIRST_DIGEST_AT = 67

    @staticmethod
    def _with_blob(encoded: bytes, offset: int, value: bytes) -> bytes:
        old_length = int.from_bytes(encoded[offset:offset + 4], "big")
        return (
            encoded[:offset] + len(value).to_bytes(4, "big") + value
            + encoded[offset + 4 + old_length:]
        )

    @staticmethod
    def _as_block(header_bytes: bytes, block) -> bytes:
        body_bytes = encode_body(block.body)
        return b"".join([
            b"2K\x01",
            len(header_bytes).to_bytes(4, "big"), header_bytes,
            len(body_bytes).to_bytes(4, "big"), body_bytes,
        ])

    def _assert_located(self, header_bytes, block, match, **kwargs):
        for decode, data in (
            (decode_header, header_bytes),
            (decode_block, self._as_block(header_bytes, block)),
        ):
            with pytest.raises(WireError, match=match):
                decode(data, **kwargs)

    def test_layout_offsets_hold(self, block):
        encoded = encode_header(block.header)
        assert self._with_blob(encoded, self.ROOT_AT, block.header.root.value) == encoded
        first = block.header.digests[min(block.header.digests)]
        assert self._with_blob(encoded, self.FIRST_DIGEST_AT, first.value) == encoded

    @pytest.mark.parametrize("length", [0, 5, 31, 33])
    def test_wrong_width_root(self, block, length):
        bad = self._with_blob(encode_header(block.header), self.ROOT_AT, b"\x07" * length)
        self._assert_located(bad, block, rf"root at offset 23: .*{length} bytes")

    @pytest.mark.parametrize("length", [0, 31, 64])
    def test_wrong_width_digest_entry(self, block, length):
        bad = self._with_blob(
            encode_header(block.header), self.FIRST_DIGEST_AT, b"\x07" * length
        )
        self._assert_located(bad, block, rf"digest of node 2 at offset 67: .*{length} bytes")

    @pytest.mark.parametrize("hash_bits", [12, 0, -8, 128, 512])
    def test_bad_hash_bits_argument(self, block, hash_bits):
        self._assert_located(
            encode_header(block.header), block, "root at offset 23", hash_bits=hash_bits
        )

    def test_matching_narrow_width_still_decodes(self, config):
        narrow = ProtocolConfig(body_bits=8_000, gamma=2, hash_bits=128)
        block = build_block(
            origin=1, index=0, time=0.0, body=make_body(1, 0, narrow),
            digests={4: hash_bytes(b"d4", 128)}, keypair=KeyPair.generate(1), config=narrow,
        )
        assert decode_block(encode_block(block), hash_bits=128) == block
