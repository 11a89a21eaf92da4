"""Merkle tree over block-body chunks.

Block headers carry ``Root = M(b^d)`` — the Merkle root of the body —
so a validator can check body integrity without trusting the storing
node (Algorithm 3, line 3).  We implement a standard binary Merkle tree
with duplicate-last-leaf padding and audit-path generation, the latter
enabling the partial-body verification extension discussed in tests.
"""

from __future__ import annotations

from hashlib import sha256
from typing import List, Sequence, Tuple

from repro.crypto.hashing import DIGEST_BITS_DEFAULT, Digest, frame_fields

#: Domain-separation tags so a leaf can never be confused with an
#: interior node (defends against second-preimage tree attacks).
_LEAF_TAG = b"\x00"
_NODE_FRAME = frame_fields((b"\x01",))


def _leaves(chunks: Sequence[bytes], width: int) -> List[bytes]:
    """Leaf level: the tagged hash of each chunk, cut to ``width`` bytes."""
    return [sha256(_LEAF_TAG + chunk).digest()[:width] for chunk in chunks or (b"",)]


def _parents(level: List[bytes], width: int) -> List[bytes]:
    """The level above ``level``; an odd level's last hash is duplicated.

    A parent hashes ``(tag, left, right)`` framed.  A level's hashes are
    equally long, so every pair shares one length prefix.  It is read
    off the level, not computed from ``width``, so a bad width still
    fails where :class:`Digest` checks it.
    """
    if len(level) % 2:
        level = level + level[-1:]
    size = len(level[0]).to_bytes(4, "big")
    head = _NODE_FRAME + size
    return [
        sha256(head + left + size + right).digest()[:width]
        for left, right in zip(level[::2], level[1::2])
    ]


class MerkleTree:
    """A binary Merkle tree built from byte chunks.

    Parameters
    ----------
    chunks:
        Body chunks; an empty body is represented by one empty chunk so
        every tree has a root.
    bits:
        Digest width (``f_H``).

    Levels are held as raw hash bytes; :attr:`root` and
    :meth:`audit_path` hand out :class:`Digest` objects.
    """

    def __init__(self, chunks: Sequence[bytes], bits: int = DIGEST_BITS_DEFAULT) -> None:
        self.bits = bits
        self._levels = [_leaves(chunks, bits // 8)]
        while len(self._levels[-1]) > 1:
            self._levels.append(_parents(self._levels[-1], bits // 8))
        self.leaf_count = len(self._levels[0])
        #: The tree root — the header's ``Root`` field.
        self.root = Digest(self._levels[-1][0], bits)

    @property
    def height(self) -> int:
        """Number of levels above the leaves."""
        return len(self._levels) - 1

    def audit_path(self, index: int) -> List[Tuple[bool, Digest]]:
        """Sibling hashes proving leaf ``index`` is under :attr:`root`.

        Returns a list of ``(sibling_is_right, sibling_digest)`` pairs
        from leaf level upward.
        """
        if not 0 <= index < self.leaf_count:
            raise IndexError(f"leaf index {index} out of range [0, {self.leaf_count})")
        path: List[Tuple[bool, Digest]] = []
        position = index
        for level in self._levels[:-1]:
            # The unpaired last hash of an odd level is its own sibling.
            sibling = level[min(position ^ 1, len(level) - 1)]
            path.append((position % 2 == 0, Digest(sibling, self.bits)))
            position //= 2
        return path


def merkle_root(chunks: Sequence[bytes], bits: int = DIGEST_BITS_DEFAULT) -> Digest:
    """The root of :class:`MerkleTree` over ``chunks``, keeping no levels."""
    level = _leaves(chunks, bits // 8)
    while len(level) > 1:
        level = _parents(level, bits // 8)
    return Digest(level[0], bits)


def verify_audit_path(
    chunk: bytes,
    path: Sequence[Tuple[bool, Digest]],
    root: Digest,
    bits: int = DIGEST_BITS_DEFAULT,
) -> bool:
    """Check that ``chunk`` is a leaf of the tree with the given ``root``."""
    [current] = _leaves([chunk], bits // 8)
    for sibling_is_right, sibling in path:
        pair = [current, sibling.value] if sibling_is_right else [sibling.value, current]
        [current] = _parents(pair, bits // 8)
    return Digest(current, bits) == root
