"""Data blocks: the unit of storage and linkage in 2LDAG.

A block ``b_{i,t}`` (Fig. 2) has a header and a body.  The header
carries Version, Time, Root (Merkle root of the body), Digests (the
hashes received from neighbours plus the node's own previous header
hash), Nonce (Eq. 5) and Signature (Eq. 6).  The *digest* of a block is
the hash of its header, ``H(b^h_{i,t})`` — the only thing a node ever
pushes to its neighbours.

Blocks are identified by :class:`BlockId` = (origin node, sequence
index).  The paper indexes blocks by generation time ``t``; a sequence
index is equivalent for static rates and stays unambiguous when nodes
generate at irregular times.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import List, Mapping, Optional

from repro.core import codec
from repro.core.config import ProtocolConfig
from repro.crypto.hashing import Digest, hash_bytes
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import merkle_root
from repro.crypto.puzzle import NoncePuzzle
from repro.crypto.signature import sign, verify

#: Chunk size (bytes) used when Merkle-izing a block body.
BODY_CHUNK_BYTES = 4096


@dataclass(frozen=True, order=True)
class BlockId:
    """Stable identity of a block: (origin node id, per-node index)."""

    origin: int
    index: int

    def __str__(self) -> str:
        return f"{self.origin}#{self.index}"


@dataclass(frozen=True)
class BlockBody:
    """The sampled-data segment ``b^d`` of constant size ``C``.

    The reproduction does not materialise C bits of sensor data per
    block — a content seed stands in for the payload and the declared
    ``size_bits`` drives all accounting.  ``chunks()`` expands the seed
    deterministically when real bytes are needed (Merkle hashing).
    """

    content_seed: bytes
    size_bits: int

    def chunks(self) -> List[bytes]:
        """Deterministic body chunks for Merkle tree construction.

        Only a bounded number of chunks is synthesised: the Merkle root
        must be a genuine function of the content, but expanding e.g.
        1 MB per block per slot would dominate simulation runtime
        without changing any measured metric.
        """
        chunk_count = max(1, min(8, self.size_bits // (BODY_CHUNK_BYTES * 8)))
        return [
            sha256(self.content_seed + i.to_bytes(4, "big")).digest()
            for i in range(chunk_count)
        ]

    def root(self, bits: int) -> Digest:
        """Merkle root ``M(b^d)`` of the body; memoised per width.

        Bodies are frozen and the chunk expansion is a pure function of
        the seed, so the root is computed at most once per width —
        ``verify_body_root`` on a fetched block reuses the value.
        """
        by_bits = self.__dict__.get("_body_root_by_bits")
        if by_bits is None:
            by_bits = {}
            object.__setattr__(self, "_body_root_by_bits", by_bits)
        root = by_bits.get(bits)
        if root is None:
            root = merkle_root(self.chunks(), bits)
            by_bits[bits] = root
        return root


def _signing_payload(version: int, time: float, root: bytes, delta: bytes, nonce: int) -> bytes:
    """The Eq. (6) pre-image, for the signer and for every verifier.

    ``delta`` is Δ's canonical encoding, which the puzzle hashes too.
    """
    return codec.encode_fields(
        [
            ("version", codec.encode_u32(version)),
            ("time", codec.encode_time(time)),
            ("root", root),
            ("digests", delta),
            ("nonce", codec.encode_u64(nonce)),
        ]
    )


#: Where Δ lies in a payload, read off the layout above: it ends this
#: many bytes (the nonce field) before the payload does, and starts
#: after as many bytes as an empty payload's other fields plus the root.
_AFTER_DELTA = len(codec.encode_fields([("nonce", codec.encode_u64(0))]))
_BEFORE_DELTA = len(_signing_payload(0, 0.0, b"", b"", 0)) - _AFTER_DELTA


@dataclass(frozen=True)
class BlockHeader:
    """The header segment ``b^h`` (Fig. 2).

    Attributes
    ----------
    origin:
        Authoring node id (carried for signature lookup; the paper's
        nodes know the topology and who they asked, so this adds no
        modelled bytes).
    index:
        Per-origin sequence number; (origin, index) = :class:`BlockId`.
    version / time / nonce:
        32-bit fields.
    root:
        Merkle root of the body.
    digests:
        Origin-node-id -> header-digest map: the latest digest received
        from each neighbour plus this node's previous header digest
        keyed by its own id (Δ of §III-D).
    signature:
        Eq. (6) over (version, time, root, digests, nonce).
    """

    origin: int
    index: int
    version: int
    time: float
    root: Digest
    digests: Mapping[int, Digest]
    nonce: int
    signature: bytes

    # Identity caching (see docs/performance.md).  Headers are frozen and
    # every field that feeds the canonical encodings is immutable once the
    # header is built, so one canonical byte string (the Eq. 6 payload,
    # which holds Δ's encoding) and the header's hashes are memoised on
    # the instance.  The cache slots are plain ``__dict__`` entries written
    # via ``object.__setattr__`` (allowed on frozen dataclasses) and are
    # deliberately *not* dataclass fields: they never participate in
    # ``__eq__``/``repr`` and a ``dataclasses.replace`` starts cold.
    # Invariant required: callers must never mutate ``digests`` after
    # construction (``build_block`` and ``decode_header`` both hand the
    # header a private dict).

    # -- identity -------------------------------------------------------------
    @property
    def block_id(self) -> BlockId:
        """(origin, index); one shared :class:`BlockId` per header."""
        block_id = self.__dict__.get("_hdr_block_id")
        if block_id is None:
            block_id = BlockId(self.origin, self.index)
            object.__setattr__(self, "_hdr_block_id", block_id)
        return block_id

    # -- canonical encodings ------------------------------------------------
    def puzzle_fields(self) -> List[bytes]:
        """The fields hashed by the Eq. (5) nonce puzzle: root and Δ.

        Δ's canonical bytes are the payload's own — a slice, not a copy
        kept beside it.
        """
        root = self.root.value
        return [root, self.signing_payload()[_BEFORE_DELTA + len(root):-_AFTER_DELTA]]

    def signing_payload(self) -> bytes:
        """Canonical bytes covered by the signature (Eq. 6); memoised."""
        payload = self.__dict__.get("_hdr_signing_payload")
        if payload is None:
            delta = codec.encode_digest_map(self.digests)
            payload = _signing_payload(self.version, self.time, self.root.value, delta, self.nonce)
            object.__setattr__(self, "_hdr_signing_payload", payload)
        return payload

    def encode(self) -> bytes:
        """Canonical bytes of the full header: the pre-image of :meth:`digest`."""
        return codec.encode_fields(
            [
                ("origin", codec.encode_u32(self.origin)),
                ("index", codec.encode_u32(self.index)),
                ("body", self.signing_payload()),
                ("signature", self.signature),
            ]
        )

    def digest(self, bits: int = 256) -> Digest:
        """``H(b^h)`` — the block digest pushed to neighbours.

        Memoised per requested width: the simulation digests every
        header many times (neighbour pushes, DAG insertion, every WPS
        round trip of every PoP run), always through the same shared
        header object, so after the first call this is a dict lookup.
        """
        by_bits = self.__dict__.get("_hdr_digest_by_bits")
        if by_bits is None:
            by_bits = {}
            object.__setattr__(self, "_hdr_digest_by_bits", by_bits)
        digest = by_bits.get(bits)
        if digest is None:
            digest = hash_bytes(self.encode(), bits)
            by_bits[bits] = digest
        return digest

    # -- queries used by PoP ----------------------------------------------------
    def references(self, other_digest: Digest) -> bool:
        """Whether Δ contains ``other_digest`` (child-of test, §III-C).

        Backed by a cached frozenset of digest bytes — a ``Digest``'s
        width is determined by its byte length, so byte equality is
        exactly ``Digest`` equality and the linear scan is unnecessary.
        """
        values = self.__dict__.get("_hdr_ref_values")
        if values is None:
            values = frozenset(d.value for d in self.digests.values())
            object.__setattr__(self, "_hdr_ref_values", values)
        return other_digest.value in values

    def digest_from(self, node: int) -> Optional[Digest]:
        """``GetDigest(b^h, node)`` of Algorithm 3 (``None`` if absent)."""
        return self.digests.get(node)

    def parent_origins(self) -> List[int]:
        """Origin node ids of all referenced parents."""
        return sorted(self.digests)

    # -- size accounting -----------------------------------------------------
    def size_bits(self, config: ProtocolConfig) -> int:
        """Header wire/storage size per Fig. 2: ``f_c + f_H·|Δ|``.

        ``|Δ|`` equals the actual number of digests carried, which is
        ``n + 1`` for a node with ``n`` neighbours in steady state.
        """
        return config.constant_header_bits + config.hash_bits * len(self.digests)

    # -- verification ------------------------------------------------------
    def verify_signature(self, public_key: bytes) -> bool:
        """Check the Eq. (6) signature against the origin's public key."""
        return verify(self.signing_payload(), self.signature, public_key)

    def verify_nonce(self, puzzle: NoncePuzzle) -> bool:
        """Check the Eq. (5) difficulty condition."""
        return puzzle.check(self.puzzle_fields(), self.nonce)


@dataclass(frozen=True)
class DataBlock:
    """A full block ``b = (b^h, b^d)``."""

    header: BlockHeader
    body: BlockBody

    @property
    def block_id(self) -> BlockId:
        """(origin, index)."""
        return self.header.block_id

    def digest(self, bits: int = 256) -> Digest:
        """``H(b^h)``."""
        return self.header.digest(bits)

    def size_bits(self, config: ProtocolConfig) -> int:
        """Eq. (2): header size plus the constant body size ``C``."""
        return self.header.size_bits(config) + config.body_bits

    def verify_body_root(self) -> bool:
        """Recompute ``M(b^d)`` and compare with the header's Root.

        This is the validator's first check (Algorithm 3, line 3).
        """
        return self.body.root(self.header.root.bits) == self.header.root


def build_block(
    origin: int,
    index: int,
    time: float,
    body: BlockBody,
    digests: Mapping[int, Digest],
    keypair: KeyPair,
    config: ProtocolConfig,
    puzzle: Optional[NoncePuzzle] = None,
) -> DataBlock:
    """Assemble, mine and sign a block (§III-D's generation procedure).

    Steps: compute the Merkle root, copy Δ (neighbour digests + own
    previous digest), search a nonce satisfying Eq. (5), then sign per
    Eq. (6).
    """
    if puzzle is None:
        puzzle = NoncePuzzle(config.puzzle_difficulty_bits, config.hash_bits)
    root = body.root(config.hash_bits)
    digest_map = dict(digests)
    encoded_digests = codec.encode_digest_map(digest_map)
    nonce = puzzle.solve([root.value, encoded_digests]).nonce
    payload = _signing_payload(config.protocol_version, time, root.value, encoded_digests, nonce)
    header = BlockHeader(
        origin=origin,
        index=index,
        version=config.protocol_version,
        time=time,
        root=root,
        digests=digest_map,
        nonce=nonce,
        signature=sign(payload, keypair),
    )
    # Computed from the very fields the header holds, so it is what a
    # cold header would recompute — warm its cache.
    object.__setattr__(header, "_hdr_signing_payload", payload)
    return DataBlock(header=header, body=body)


def make_body(origin: int, index: int, config: ProtocolConfig, salt: bytes = b"") -> BlockBody:
    """A deterministic synthetic body for (origin, index)."""
    seed = b"body:" + salt + origin.to_bytes(4, "big") + index.to_bytes(8, "big")
    return BlockBody(content_seed=seed, size_bits=config.body_bits)
