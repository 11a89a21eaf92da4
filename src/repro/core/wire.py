"""Wire format: byte-level serialization of blocks and headers.

The simulation passes Python objects between nodes for speed, but a
deployable implementation needs a defined octet format.  This module
provides one — a length-prefixed binary encoding that round-trips
:class:`~repro.core.block.BlockHeader`, :class:`~repro.core.block.BlockBody`
and :class:`~repro.core.block.DataBlock` — along with strict parsing
(truncated or trailing bytes are errors, not warnings: a node must
never act on a half-parsed header).

Format (all integers big-endian):

    header   := magic(2) version(1) origin(u32) index(u32) time(u64 µs)
                proto_version(u32) root_len(u32) root
                digest_count(u32) { node(u32) digest_len(u32) digest }*
                nonce(u64) sig_len(u32) sig
    body     := magic(2) version(1) seed_len(u32) seed size_bits(u64)
    block    := magic(2) version(1) header_blob body_blob (each length-prefixed)
"""

from __future__ import annotations

import struct
from typing import Dict

from repro.core.block import BlockBody, BlockHeader, DataBlock
from repro.crypto.hashing import Digest

_HEADER_MAGIC = b"2H"
_BODY_MAGIC = b"2B"
_BLOCK_MAGIC = b"2K"
_WIRE_VERSION = 1


class WireError(ValueError):
    """Raised on malformed, truncated or trailing wire bytes."""


class _Reader:
    """Cursor over immutable bytes with bounds-checked reads."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def take(self, count: int) -> bytes:
        if count < 0 or self._offset + count > len(self._data):
            raise WireError(
                f"truncated input: wanted {count} bytes at offset {self._offset}, "
                f"have {len(self._data) - self._offset}"
            )
        chunk = self._data[self._offset:self._offset + count]
        self._offset += count
        return chunk

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def digest(self, bits: int, field: str) -> Digest:
        """A length-prefixed digest that must be exactly ``bits`` wide."""
        offset = self._offset
        value = self.blob()
        try:
            return Digest(value, bits)
        except ValueError as exc:
            raise WireError(f"{field} at offset {offset}: {exc}") from None

    def expect_end(self) -> None:
        if self._offset != len(self._data):
            raise WireError(
                f"{len(self._data) - self._offset} trailing bytes after message"
            )

    def expect_magic(self, magic: bytes) -> None:
        found = self.take(len(magic))
        if found != magic:
            raise WireError(f"bad magic {found!r}, expected {magic!r}")
        version = self.take(1)[0]
        if version != _WIRE_VERSION:
            raise WireError(f"unsupported wire version {version}")


def _u32(value: int) -> bytes:
    if not 0 <= value < 2 ** 32:
        raise WireError(f"u32 out of range: {value}")
    return struct.pack(">I", value)


def _u64(value: int) -> bytes:
    if not 0 <= value < 2 ** 64:
        raise WireError(f"u64 out of range: {value}")
    return struct.pack(">Q", value)


def _blob(data: bytes) -> bytes:
    return _u32(len(data)) + data


# -- headers ---------------------------------------------------------------

def encode_header(header: BlockHeader) -> bytes:
    """Serialize a block header to wire bytes."""
    parts = [
        _HEADER_MAGIC,
        bytes([_WIRE_VERSION]),
        _u32(header.origin),
        _u32(header.index),
        _u64(int(round(header.time * 1_000_000))),
        _u32(header.version),
        _blob(header.root.value),
        _u32(len(header.digests)),
    ]
    for node in sorted(header.digests):
        digest = header.digests[node]
        parts.append(_u32(node))
        parts.append(_blob(digest.value))
    parts.append(_u64(header.nonce))
    parts.append(_blob(header.signature))
    return b"".join(parts)


def decode_header(data: bytes, hash_bits: int = 256) -> BlockHeader:
    """Parse wire bytes back into a header (strict)."""
    reader = _Reader(data)
    header = _read_header(reader, hash_bits)
    reader.expect_end()
    return header


def _read_header(reader: _Reader, hash_bits: int) -> BlockHeader:
    reader.expect_magic(_HEADER_MAGIC)
    origin = reader.u32()
    index = reader.u32()
    time = reader.u64() / 1_000_000.0
    proto_version = reader.u32()
    root = reader.digest(hash_bits, "root")
    digest_count = reader.u32()
    if digest_count > 10_000:
        raise WireError(f"implausible digest count {digest_count}")
    digests: Dict[int, Digest] = {}
    for _ in range(digest_count):
        node = reader.u32()
        if node in digests:
            raise WireError(f"duplicate digest entry for node {node}")
        digests[node] = reader.digest(hash_bits, f"digest of node {node}")
    nonce = reader.u64()
    signature = reader.blob()
    return BlockHeader(
        origin=origin,
        index=index,
        version=proto_version,
        time=time,
        root=root,
        digests=digests,
        nonce=nonce,
        signature=signature,
    )


# -- bodies and blocks --------------------------------------------------------

def encode_body(body: BlockBody) -> bytes:
    """Serialize a body descriptor (seed + declared size)."""
    return b"".join([
        _BODY_MAGIC,
        bytes([_WIRE_VERSION]),
        _blob(body.content_seed),
        _u64(body.size_bits),
    ])


def decode_body(data: bytes) -> BlockBody:
    """Parse wire bytes back into a body descriptor (strict)."""
    reader = _Reader(data)
    body = _read_body(reader)
    reader.expect_end()
    return body


def _read_body(reader: _Reader) -> BlockBody:
    reader.expect_magic(_BODY_MAGIC)
    seed = reader.blob()
    size_bits = reader.u64()
    return BlockBody(content_seed=seed, size_bits=size_bits)


def encode_block(block: DataBlock) -> bytes:
    """Serialize a full block (header + body)."""
    return b"".join([
        _BLOCK_MAGIC,
        bytes([_WIRE_VERSION]),
        _blob(encode_header(block.header)),
        _blob(encode_body(block.body)),
    ])


def decode_block(data: bytes, hash_bits: int = 256) -> DataBlock:
    """Parse wire bytes back into a full block (strict)."""
    reader = _Reader(data)
    reader.expect_magic(_BLOCK_MAGIC)
    header = decode_header(reader.blob(), hash_bits)
    body = decode_body(reader.blob())
    reader.expect_end()
    return DataBlock(header=header, body=body)
