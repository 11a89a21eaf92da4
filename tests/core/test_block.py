"""Unit tests for data blocks: construction, sizes, verification."""

import dataclasses

import pytest

from repro.core.block import BlockBody, BlockId, build_block, make_body
from repro.core.config import ProtocolConfig
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair
from repro.crypto.puzzle import NoncePuzzle


@pytest.fixture
def config():
    return ProtocolConfig(body_bits=8_000, gamma=2)


@pytest.fixture
def keypair():
    return KeyPair.generate(1)


def _block(config, keypair, digests=None, index=0, time=0.0):
    body = make_body(1, index, config)
    return build_block(
        origin=1, index=index, time=time, body=body,
        digests=digests or {}, keypair=keypair, config=config,
    )


class TestConstruction:
    def test_block_id(self, config, keypair):
        block = _block(config, keypair, index=3)
        assert block.block_id == BlockId(1, 3)

    def test_digest_stable(self, config, keypair):
        block = _block(config, keypair)
        assert block.digest() == block.header.digest()

    def test_signature_verifies(self, config, keypair):
        block = _block(config, keypair)
        assert block.header.verify_signature(keypair.public)

    def test_nonce_satisfies_puzzle(self, config, keypair):
        puzzle_config = dataclasses.replace(config, puzzle_difficulty_bits=4)
        block = _block(puzzle_config, keypair)
        assert block.header.verify_nonce(NoncePuzzle(4, puzzle_config.hash_bits))

    def test_body_root_verifies(self, config, keypair):
        block = _block(config, keypair)
        assert block.verify_body_root()

    def test_references_parent_digests(self, config, keypair, references):
        parent = _block(config, keypair)
        parent_digest = parent.digest(config.hash_bits)
        child = _block(config, keypair, digests={1: parent_digest}, index=1)
        assert references(child.header, parent_digest)
        assert child.header.digest_from(1) == parent_digest

    def test_missing_digest_is_none(self, config, keypair):
        block = _block(config, keypair)
        assert block.header.digest_from(99) is None


class TestTamperDetection:
    def test_tampered_root_breaks_signature(self, config, keypair):
        block = _block(config, keypair)
        tampered = dataclasses.replace(
            block.header, root=hash_bytes(b"evil", config.hash_bits)
        )
        assert not tampered.verify_signature(keypair.public)

    def test_tampered_time_breaks_signature(self, config, keypair):
        block = _block(config, keypair)
        tampered = dataclasses.replace(block.header, time=99.0)
        assert not tampered.verify_signature(keypair.public)

    def test_tampered_digests_break_signature(self, config, keypair):
        block = _block(config, keypair)
        evil = {5: hash_bytes(b"fake", config.hash_bits)}
        tampered = dataclasses.replace(block.header, digests=evil)
        assert not tampered.verify_signature(keypair.public)

    def test_tamper_changes_block_digest(self, config, keypair):
        block = _block(config, keypair)
        tampered = dataclasses.replace(block.header, nonce=block.header.nonce + 1)
        assert tampered.digest() != block.header.digest()

    def test_body_swap_detected_by_root(self, config, keypair):
        block = _block(config, keypair)
        evil_body = BlockBody(content_seed=b"evil", size_bits=config.body_bits)
        swapped = dataclasses.replace(block, body=evil_body)
        assert not swapped.verify_body_root()


class TestSizes:
    def test_block_size_matches_eq2(self, config, keypair):
        digests = {
            j: hash_bytes(f"d{j}".encode(), config.hash_bits) for j in (2, 3, 4)
        }
        digests[1] = hash_bytes(b"own-prev", config.hash_bits)
        block = _block(config, keypair, digests=digests, index=1)
        # |Δ| = 4 = n + 1 for n = 3 neighbours.
        assert block.size_bits(config) == config.block_bits(3)

    def test_genesis_block_size(self, config, keypair):
        block = _block(config, keypair)  # empty Δ
        assert block.header.size_bits(config) == config.constant_header_bits

    def test_body_chunks_deterministic(self, config):
        body = make_body(1, 0, config)
        assert body.chunks() == body.chunks()

    def test_body_roots_are_pinned(self, config):
        # The synthetic body of (origin, index) is part of every digest a
        # run reports; its seed bytes must not drift.
        roots = {
            (origin, index): make_body(origin, index, config).root(config.hash_bits).value.hex()
            for origin, index in ((1, 0), (7, 3))
        }
        assert roots == {
            (1, 0): "2ef6208e2be6d34b83e4dbc01a7023310d085e140e8851b11b9bd0d7fdfd3930",
            (7, 3): "c948e51849c98f7131d5b9324096e53ad20c8c9ada97516affe2f4be92b79ef4",
        }

    def test_body_chunks_bounded(self):
        big = BlockBody(content_seed=b"x", size_bits=8_000_000)
        assert 1 <= len(big.chunks()) <= 8
