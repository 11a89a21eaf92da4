"""The crypto kernel pinned at the primitive.

Known answers, an object-level reference tree, a SHA-256 count and the
``Digest`` contract — everything here goes through public names only, so
the file passes unchanged on any implementation that hashes the same
bytes: an optimisation of the kernel must keep it green without edits.
"""

import copy
import hashlib
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.core.block import BlockBody, build_block
from repro.core.config import ProtocolConfig
from repro.crypto.hashing import Digest, hash_bytes, hash_fields
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import MerkleTree, merkle_root, verify_audit_path
from repro.crypto.puzzle import NoncePuzzle

WIDTHS = (64, 128, 256)
BAD_WIDTHS = (0, -8, 7, 264, 512)


def fixed_block(puzzle_difficulty_bits=0):
    """One block every known answer below is taken from."""
    config = ProtocolConfig(
        body_bits=4_000_000, gamma=2, puzzle_difficulty_bits=puzzle_difficulty_bits
    )
    body = BlockBody(content_seed=b"known-answer body", size_bits=config.body_bits)
    digests = {
        4: hash_bytes(b"parent-4"),
        1: hash_bytes(b"parent-1"),
        7: hash_bytes(b"own-previous"),
    }
    return build_block(7, 3, 2.25, body, digests, KeyPair.generate(7, seed=11), config)


# -- (a) known answers ---------------------------------------------------------

MERKLE_ROOTS = {
    0: ("6e340b9cffb37a98",
        "6e340b9cffb37a989ca544e6bb780a2c",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
    1: ("96c912504031968f",
        "96c912504031968f47e8aa91785affc6",
        "96c912504031968f47e8aa91785affc675f9e4f81dd3495a91af99e74823cbe8"),
    2: ("0f40ebe6adc552a6",
        "9dd7cc53b3777d2b87eb8401cee175c7",
        "4f1ddac95d7953643c77834e5cb24dbd3b0b13b1ed7a6e8be6bdd9c61f6cb607"),
    3: ("e0378ab06d9295b7",
        "62ce1c76fe173c7687637542800e161e",
        "898a0fc3db89fc42b615a11fba136dc765ba91f01adbd9875ed3a5ef7b40020a"),
    5: ("a28baf530f7d4975",
        "ae8d6ebc0debb0dfcdadca3073de0970",
        "551bf454f82915927e75ca2fd66a42ebd074c35877b9df1aafabf83ebd8be487"),
    8: ("dbe8024381b245ef",
        "6b5627a9378d28a2679b30d53ed9b2bf",
        "60aef66a8e710a50faf833a4c44ff504817e8299a4ec82045f04b2584e4dbf44"),
}

_DELTA_HEX = (
    "00000003"
    "0000000100000020f2a0ede82b5b172b5fe082f344cf232da686bda1c8e73017009cdf979efd52ad"
    "000000040000002027e56f73f0b8752362877a89f2ac1a9402563ff41fd4413fb8cf36402c99ef8e"
    "0000000700000020ecad5fc7c8ef1923c45a2d225999e37ea95313fb571aa062c1be6961eb7d70ab"
)
_ROOT_HEX = "ce8ca662386000df8975d95f2c653c60ce405a7bfba126be127b9c66661f2a46"
_SIGNATURE_HEX = "6ee6b612542c0bdb07dad21e41a5420a9050b4a425d200326363e6047e01de19"
#: name frame, length, value — for version, time (2.25 slots in µs), root, Δ, nonce.
_PAYLOAD_HEX = (
    "0000000776657273696f6e" "00000004" "00000001"
    "0000000474696d65" "00000008" "0000000000225510"
    "00000004726f6f74" "00000020" + _ROOT_HEX
    + "0000000764696765737473" "0000007c" + _DELTA_HEX
    + "000000056e6f6e6365" "00000008" "0000000000000000"
)
_ENCODED_HEX = (
    "000000066f726967696e" "00000004" "00000007"
    "00000005696e646578" "00000004" "00000003"
    "00000004626f6479" "000000f3" + _PAYLOAD_HEX
    + "000000097369676e6174757265" "00000020" + _SIGNATURE_HEX
)
_WIRE_HEX = (
    "3248" "01" "00000007" "00000003" "0000000000225510" "00000001"
    "00000020" + _ROOT_HEX + _DELTA_HEX + "0000000000000000" "00000020" + _SIGNATURE_HEX
)


class TestKnownAnswers:
    def test_hash_fields(self):
        assert hash_fields([b"ab", b"c"]).hex() == (
            "f2939f903016e5bb29b1e4a61cdbd376220ca03a24180b39995f2d50f2e0a647"
        )
        # The framing, spelled out: 4-byte big-endian length before each field.
        framed = b"\x00\x00\x00\x02ab\x00\x00\x00\x01c"
        assert hash_fields([b"ab", b"c"]).value == hashlib.sha256(framed).digest()

    @pytest.mark.parametrize("count", sorted(MERKLE_ROOTS))
    def test_merkle_roots(self, count):
        chunks = [b"chunk-%d" % i for i in range(count)]
        for bits, expected in zip(WIDTHS, MERKLE_ROOTS[count]):
            root = merkle_root(chunks, bits)
            assert (root.hex(), root.bits) == (expected, bits)
            assert MerkleTree(chunks, bits).root == root

    def test_fixed_block(self):
        header = fixed_block().header
        assert header.root.hex() == _ROOT_HEX
        assert header.nonce == 0
        assert header.signature.hex() == _SIGNATURE_HEX
        assert header.signing_payload().hex() == _PAYLOAD_HEX
        assert header.encode().hex() == _ENCODED_HEX
        assert header.digest().hex() == (
            "ab0dc3ff4eab106bf6cfddb1bbe344f7384aa56d4a0579d6a6d1fd98da073628"
        )
        assert header.digest(128).hex() == "ab0dc3ff4eab106bf6cfddb1bbe344f7"
        assert wire.encode_header(header).hex() == _WIRE_HEX

    def test_fixed_block_mined(self):
        header = fixed_block(puzzle_difficulty_bits=6).header
        assert header.nonce == 55
        assert header.verify_nonce(NoncePuzzle(6), header.signing_payload())
        assert header.digest().hex() == (
            "71e3559120e4036ca2bec70e519b70e26e8bdb2690fd026d0881714fbf079115"
        )

    def test_puzzle_solution(self):
        solution = NoncePuzzle(difficulty_bits=8).solve([b"root", b"digests"])
        assert (solution.nonce, solution.attempts) == (892, 893)
        assert solution.digest.hex() == (
            "003d10d9cd1d5811451e99df4ccdb2a71d16426c8da0d63fc29721b531fdb92f"
        )
        narrow = NoncePuzzle(difficulty_bits=8, bits=64).solve(
            [b"root", b"digests"], start_nonce=1000
        )
        assert (narrow.nonce, narrow.attempts) == (1912, 913)
        assert narrow.digest.hex() == "0038378295a4e74f"


# -- (b) the object-level reference tree ------------------------------------------

def reference_levels(chunks, bits):
    """The tree one ``Digest`` at a time: ``hash_bytes`` leaves under a
    ``\\x00`` tag, ``hash_fields`` parents under ``\\x01``, last one doubled."""
    levels = [[hash_bytes(b"\x00" + chunk, bits) for chunk in chunks or [b""]]]
    while len(levels[-1]) > 1:
        level = levels[-1]
        if len(level) % 2 == 1:
            level = level + [level[-1]]
        levels.append([
            hash_fields([b"\x01", level[i].value, level[i + 1].value], bits)
            for i in range(0, len(level), 2)
        ])
    return levels


def reference_audit_path(levels, index):
    path = []
    for level in levels[:-1]:
        padded = level if len(level) % 2 == 0 else level + [level[-1]]
        path.append((index % 2 == 0, padded[index + 1 if index % 2 == 0 else index - 1]))
        index //= 2
    return path


class TestMerkleAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(
        chunks=st.lists(st.binary(max_size=40), max_size=13),
        bits=st.sampled_from(WIDTHS),
        data=st.data(),
    )
    def test_root_paths_and_tampering(self, chunks, bits, data):
        levels = reference_levels(chunks, bits)
        tree = MerkleTree(chunks, bits)
        assert merkle_root(chunks, bits) == tree.root == levels[-1][0]
        assert tree.leaf_count == len(levels[0])
        assert tree.height == len(levels) - 1
        leaves = chunks or [b""]
        for index, chunk in enumerate(leaves):
            path = tree.audit_path(index)
            assert path == reference_audit_path(levels, index)
            assert verify_audit_path(chunk, path, tree.root, bits)
        # One flipped bit — in the chunk, or in a sibling — must fail.
        index = data.draw(st.integers(0, len(leaves) - 1))
        path = tree.audit_path(index)
        chunk = leaves[index]
        if chunk:
            flipped = bytes([chunk[0] ^ 0x01]) + chunk[1:]
            assert not verify_audit_path(flipped, path, tree.root, bits)
        assert not verify_audit_path(chunk + b"\x00", path, tree.root, bits)
        if path:
            step = data.draw(st.integers(0, len(path) - 1))
            is_right, sibling = path[step]
            bent = Digest(bytes([sibling.value[0] ^ 0x80]) + sibling.value[1:], bits)
            tampered = path[:step] + [(is_right, bent)] + path[step + 1:]
            assert not verify_audit_path(chunk, tampered, tree.root, bits)


# -- (d) no hash skipped, none added ----------------------------------------------

class Sha256Counter:
    """Counts SHA-256 computations: C calls of ``hashlib.sha256``."""

    def __enter__(self):
        self.count = 0
        self._previous = sys.getprofile()
        sys.setprofile(self._on_event)
        return self

    def __exit__(self, *exc_info):
        sys.setprofile(self._previous)

    def _on_event(self, frame, event, arg):
        if event == "c_call" and arg is hashlib.sha256:
            self.count += 1


class TestSha256Count:
    def test_counter_counts(self):
        with Sha256Counter() as counter:
            hashlib.sha256(b"one").digest()
            hasher = hashlib.sha256()
            hasher.update(b"two")
            hasher.digest()
        assert counter.count == 2

    def test_block_life_cycle(self):
        config = ProtocolConfig(gamma=2)  # 0.5 MB bodies: eight synthetic chunks
        body = BlockBody(content_seed=b"counted body", size_bits=config.body_bits)
        keypair = KeyPair.generate(5)
        digests = {j: hash_bytes(b"parent-%d" % j) for j in range(6)}
        puzzle = NoncePuzzle(0)
        assert len(body.chunks()) == 8
        body = BlockBody(content_seed=b"counted body", size_bits=config.body_bits)

        with Sha256Counter() as build:
            block = build_block(5, 0, 1.0, body, digests, keypair, config, puzzle)
            block.digest()
        # 8 chunk expansions, 8 leaves, 7 parents, puzzle, signature, header digest.
        assert build.count == 26

        with Sha256Counter() as again:
            assert block.verify_body_root()
            block.digest()
        assert again.count == 0

        copy_ = wire.decode_block(wire.encode_block(block))
        with Sha256Counter() as cold_root:
            assert copy_.verify_body_root()
        assert cold_root.count == 23
        with Sha256Counter() as nonce:
            assert copy_.header.verify_nonce(puzzle, copy_.header.signing_payload())
        assert nonce.count == 1
        with Sha256Counter() as signature:
            assert copy_.header.verify_signature(keypair.public)
        assert signature.count == 1


# -- (e) the Digest contract ------------------------------------------------------

class TestDigestContract:
    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            Digest(b"\x00", 7)
        with pytest.raises(ValueError):
            Digest(b"\x00\x00", 256)
        assert Digest(b"\x00" * 64, 512).bits == 512  # wide digests from outside bytes

    @pytest.mark.parametrize("bits", BAD_WIDTHS)
    def test_hashing_rejects_bad_widths(self, bits):
        with pytest.raises(ValueError):
            hash_bytes(b"", bits)
        with pytest.raises(ValueError):
            hash_fields([b"a"], bits)
        with pytest.raises(ValueError):
            merkle_root([], bits)
        with pytest.raises(ValueError):
            MerkleTree([b"a", b"b"], bits)

    @pytest.mark.parametrize("make", [
        lambda: hash_bytes(b"x"),
        lambda: hash_fields([b"x"], 128),
        lambda: merkle_root([b"x", b"y"], 64),
        lambda: Digest(b"\x01" * 8, 64),
    ])
    def test_value_semantics(self, make):
        digest = make()
        assert len(digest.value) * 8 == digest.bits
        assert not hasattr(digest, "__dict__")  # slotted: no per-instance dict
        with pytest.raises(AttributeError):
            digest.value = b""
        with pytest.raises(AttributeError):
            digest.bits = 8
        with pytest.raises(AttributeError):
            del digest.value
        twin = Digest(digest.value, digest.bits)
        assert digest == twin and hash(digest) == hash(twin)
        assert {digest: 1}[twin] == 1
        for clone in (pickle.loads(pickle.dumps(digest)), copy.deepcopy(digest), copy.copy(digest)):
            assert clone == digest and clone.bits == digest.bits
            assert type(clone) is Digest

    def test_same_bytes_other_width_differ(self):
        assert hash_bytes(b"x", 128) != hash_bytes(b"x", 256)
        assert hash_bytes(b"x", 128).value == hash_bytes(b"x", 256).value[:16]

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_buffer_inputs_hash_as_bytes(self, bits):
        data = b"some \x00 bytes" * 5
        expected = hash_bytes(data, bits)
        assert hash_bytes(bytearray(data), bits) == expected
        assert hash_bytes(memoryview(data), bits) == expected
        fields = [b"ab", b"", b"c" * 70]
        expected = hash_fields(fields, bits)
        assert hash_fields([bytearray(f) for f in fields], bits) == expected
        assert hash_fields([memoryview(f) for f in fields], bits) == expected
        assert hash_fields(iter(fields), bits) == expected

    def test_mutating_the_input_afterwards_changes_nothing(self):
        buffer = bytearray(b"mutable input")
        digest, fielded = hash_bytes(buffer), hash_fields([buffer, buffer])
        before = (digest.value, fielded.value)
        buffer[0] ^= 0xFF
        assert (digest.value, fielded.value) == before
        assert digest == hash_bytes(b"mutable input")
        assert fielded == hash_fields([b"mutable input"] * 2)


# -- leading zero bits: the bit loop as reference ---------------------------------

def reference_leading_zero_bits(value: bytes) -> int:
    count = 0
    for byte in value:
        if byte == 0:
            count += 8
            continue
        for shift in range(7, -1, -1):
            if byte >> shift & 1:
                return count
            count += 1
    return count


class TestLeadingZeroBits:
    @settings(max_examples=300, deadline=None)
    @given(
        bits=st.sampled_from((8, 64, 128, 256)),
        zero_prefix=st.integers(0, 32),
        data=st.data(),
    )
    def test_matches_bit_loop(self, bits, zero_prefix, data):
        width = bits // 8
        tail = data.draw(st.binary(min_size=width, max_size=width))
        value = (b"\x00" * zero_prefix + tail)[:width]
        digest = Digest(value, bits)
        assert digest.leading_zero_bits() == reference_leading_zero_bits(value)

    @pytest.mark.parametrize("bits", (8, 64, 128, 256))
    def test_extremes(self, bits):
        width = bits // 8
        assert Digest(b"\x00" * width, bits).leading_zero_bits() == bits
        assert Digest(b"\xff" + b"\x00" * (width - 1), bits).leading_zero_bits() == 0
        assert Digest(b"\x00" * (width - 1) + b"\x01", bits).leading_zero_bits() == bits - 1
