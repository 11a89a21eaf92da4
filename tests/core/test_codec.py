"""Unit tests for the canonical codec."""

import pytest

from repro.core import codec
from repro.crypto.hashing import Digest


class TestScalars:
    def test_u32_roundtrip_bounds(self):
        assert codec.encode_u32(0) == b"\x00\x00\x00\x00"
        assert codec.encode_u32(2 ** 32 - 1) == b"\xff\xff\xff\xff"

    def test_u32_out_of_range(self):
        with pytest.raises(ValueError):
            codec.encode_u32(-1)
        with pytest.raises(ValueError):
            codec.encode_u32(2 ** 32)

    def test_u64(self):
        assert codec.encode_u64(1) == b"\x00" * 7 + b"\x01"

    def test_time_scaling(self):
        assert codec.encode_time(1.0) == codec.encode_u64(1_000_000)

    def test_time_negative_rejected(self):
        with pytest.raises(ValueError):
            codec.encode_time(-0.5)

    def test_bytes_length_prefixed(self):
        assert codec.encode_bytes(b"ab") == b"\x00\x00\x00\x02ab"


def digest_map(*entries):
    """A node-id -> one-byte :class:`Digest` map, in the given order."""
    return {node: Digest(value, 8) for node, value in entries}


class TestDigestMap:
    def test_order_independent(self):
        """Encoding must be canonical regardless of insertion order."""
        a = codec.encode_digest_map(digest_map((1, b"x"), (2, b"y")))
        b = codec.encode_digest_map(digest_map((2, b"y"), (1, b"x")))
        assert a == b

    def test_distinguishes_owners(self):
        assert codec.encode_digest_map(digest_map((1, b"x"))) != codec.encode_digest_map(
            digest_map((2, b"x"))
        )

    def test_empty_map(self):
        assert codec.encode_digest_map({}) == codec.encode_u32(0)

    def test_known_bytes(self):
        """Count, then per entry node id, digest length, digest."""
        encoded = codec.encode_digest_map(digest_map((2 ** 32 - 1, b"y"), (0, b"x")))
        assert encoded == (
            b"\x00\x00\x00\x02"
            b"\x00\x00\x00\x00" b"\x00\x00\x00\x01" b"x"
            b"\xff\xff\xff\xff" b"\x00\x00\x00\x01" b"y"
        )

    @pytest.mark.parametrize("node", [-1, 2 ** 32])
    def test_node_id_out_of_range_names_the_value(self, node):
        with pytest.raises(ValueError, match=f"u32 out of range: {node}$"):
            codec.encode_digest_map(digest_map((1, b"x"), (node, b"y"), (3, b"z")))


class TestFields:
    def test_name_framing_prevents_collisions(self):
        a = codec.encode_fields([("ab", b"c")])
        b = codec.encode_fields([("a", b"bc")])
        assert a != b

    def test_field_order_preserved(self):
        a = codec.encode_fields([("x", b"1"), ("y", b"2")])
        b = codec.encode_fields([("y", b"2"), ("x", b"1")])
        assert a != b
