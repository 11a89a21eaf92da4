"""Unit tests for partial-body audits."""

import dataclasses

import pytest

from repro.core.audit import (
    AuditError,
    make_chunk_proof,
    verify_chunk_proof,
)
from repro.core.block import BlockBody, build_block, make_body
from repro.core.config import ProtocolConfig
from repro.crypto.keys import KeyPair


@pytest.fixture
def config():
    # A large body so it splits into the maximum number of chunks.
    return ProtocolConfig(body_bits=2_000_000, gamma=2)


@pytest.fixture
def block(config):
    return build_block(
        origin=1, index=0, time=0.0, body=make_body(1, 0, config),
        digests={}, keypair=KeyPair.generate(1), config=config,
    )


class TestChunkProofs:
    def test_every_chunk_proves(self, block):
        for index in range(len(block.body.chunks())):
            proof = make_chunk_proof(block, index)
            assert verify_chunk_proof(proof, block.header)

    def test_out_of_range_index(self, block):
        with pytest.raises(AuditError):
            make_chunk_proof(block, 999)

    def test_tampered_chunk_fails(self, block):
        proof = make_chunk_proof(block, 0)
        forged = dataclasses.replace(proof, chunk=b"tampered" + proof.chunk)
        assert not verify_chunk_proof(forged, block.header)

    def test_wrong_block_id_fails(self, block):
        from repro.core.block import BlockId

        proof = make_chunk_proof(block, 0)
        forged = dataclasses.replace(proof, block_id=BlockId(9, 9))
        assert not verify_chunk_proof(forged, block.header)

    def test_truncated_path_fails(self, block):
        proof = make_chunk_proof(block, 0)
        if proof.path:
            forged = dataclasses.replace(proof, path=proof.path[:-1])
            assert not verify_chunk_proof(forged, block.header)

    def test_inconsistent_body_refused(self, block, config):
        """A storing node whose body diverged from the committed root
        cannot produce proofs at all."""
        swapped = dataclasses.replace(
            block, body=BlockBody(content_seed=b"evil", size_bits=config.body_bits)
        )
        with pytest.raises(AuditError):
            make_chunk_proof(swapped, 0)

    def test_proof_smaller_than_body(self, block, config):
        proof = make_chunk_proof(block, 0)
        assert proof.size_bits() < config.body_bits
