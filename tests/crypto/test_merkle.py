"""Unit tests for Merkle trees."""

import pytest

from repro.crypto.merkle import MerkleTree, merkle_root, verify_audit_path


class TestConstruction:
    def test_single_chunk_root_is_leaf_hash(self):
        tree = MerkleTree([b"only"])
        assert tree.height == 0
        assert tree.root == merkle_root([b"only"])

    def test_empty_chunks_still_has_root(self):
        tree = MerkleTree([])
        assert tree.leaf_count == 1

    def test_root_changes_with_any_chunk(self):
        base = merkle_root([b"a", b"b", b"c"])
        assert merkle_root([b"a", b"b", b"x"]) != base
        assert merkle_root([b"x", b"b", b"c"]) != base

    def test_root_depends_on_order(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    def test_odd_leaf_padding(self):
        """Three leaves pad by duplicating the last one."""
        tree = MerkleTree([b"a", b"b", b"c"])
        padded = MerkleTree([b"a", b"b", b"c", b"c"])
        assert tree.root == padded.root

    def test_leaf_vs_interior_domain_separation(self):
        """A single chunk equal to an interior encoding must not
        produce the parent's hash (second-preimage defence)."""
        two = MerkleTree([b"a", b"b"])
        [(_, left)] = two.audit_path(1)
        [(_, right)] = two.audit_path(0)
        fake_leaf = b"\x01" + left.value + right.value
        assert merkle_root([fake_leaf]) != two.root

    def test_height_grows_logarithmically(self):
        assert MerkleTree([b"x"] * 8).height == 3
        assert MerkleTree([b"x"] * 9).height == 4


class TestAuditPaths:
    @pytest.mark.parametrize("leaf_count", [1, 2, 3, 5, 8, 13])
    def test_every_leaf_verifies(self, leaf_count):
        chunks = [f"chunk-{i}".encode() for i in range(leaf_count)]
        tree = MerkleTree(chunks)
        for index, chunk in enumerate(chunks):
            path = tree.audit_path(index)
            assert verify_audit_path(chunk, path, tree.root)

    def test_wrong_chunk_fails(self):
        chunks = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(chunks)
        path = tree.audit_path(2)
        assert not verify_audit_path(b"tampered", path, tree.root)

    def test_wrong_root_fails(self):
        chunks = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(chunks)
        other = MerkleTree([b"w", b"x", b"y", b"z"])
        path = tree.audit_path(0)
        assert not verify_audit_path(b"a", path, other.root)

    def test_out_of_range_index_raises(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(IndexError):
            tree.audit_path(2)
